//! The networked-vs-in-process bitwise oracle.
//!
//! The wire layer may race — threads, sockets, scheduler — but round
//! outcomes must be **golden-trace-identical** to the in-process loop
//! given the same participation set. Three oracles pin it:
//!
//! 1. clean loopback (full participation) == `Server::run_round`, bitwise;
//! 2. 2-bit sign uploads == locally quantised in-process uploads, bitwise;
//! 3. under the testkit fault plans at seeds 101/202 (torn frames,
//!    connection drops, duplicate transmissions, dropouts), the observed
//!    per-round participation replayed in-process reproduces every round
//!    model bit for bit.
//!
//! The clean runs also balance the byte books exactly: payload bytes
//! against `comms::round_bytes`, framing against the FUSG header and
//! trailer per frame, and the `net.bytes_{tx,rx}` counters against the
//! run report.

use fuiov_data::{Dataset, DigitStyle};
use fuiov_fl::{Client, FlConfig, HonestClient, Server, Upload};
use fuiov_net::wire::{
    encode_control, encode_grad_upload_into, encode_register, read_frame, ControlCode,
};
use fuiov_net::{NetAddr, NetConfig, NetServer, NetVehicle, UploadMode, VehicleConfig};
use fuiov_nn::ModelSpec;
use fuiov_obs::Snapshot;
use fuiov_storage::segment::{check_record, RecordKind, HEADER_LEN, TRAILER_LEN};
use fuiov_storage::{GradientDirection, Round};
use fuiov_testkit::{Fault, FaultPlan, FaultSpec};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::Shutdown;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const SPEC: ModelSpec = ModelSpec::Mlp {
    inputs: 144,
    hidden: 4,
    classes: 10,
};

fn make_client(id: usize) -> HonestClient {
    let data = Dataset::digits(20, &DigitStyle::small(), id as u64 + 1);
    HonestClient::new(id, SPEC, data, 10, 1)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn dim() -> usize {
    SPEC.build(0).params().len()
}

/// Held around every `serve` in this file: the obs counters are
/// process-wide and the tests run concurrently, so without it one
/// test's traffic would land in another's counter delta. A test that
/// fails while serving poisons it; the guarded `()` holds no state, so
/// the others go on.
fn serve_lock() -> MutexGuard<'static, ()> {
    static SERVE: Mutex<()> = Mutex::new(());
    SERVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `n` vehicles over loopback for `rounds`, returning the mutated
/// server.
fn run_networked(n: usize, rounds: usize, mode: UploadMode, delta: f32) -> Server {
    let _serving = serve_lock();
    let before = Snapshot::capture();
    let cfg = NetConfig::new(NetAddr::parse("tcp:127.0.0.1:0"), n)
        .with_mode(mode)
        .with_deadline(Duration::from_secs(10));
    let mut net = NetServer::bind(cfg).expect("bind");
    let addr = net.local_addr().clone();
    let vehicles: Vec<_> = (0..n)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut vcfg = VehicleConfig::new(addr, 7);
                if mode == UploadMode::Sign2Bit {
                    vcfg = vcfg.with_sign_uploads(delta);
                }
                NetVehicle::new(vcfg, Box::new(make_client(id)), dim())
                    .run()
                    .expect("vehicle run")
            })
        })
        .collect();
    let mut fl = Server::new(FlConfig::new(rounds, 0.1), SPEC.build(0).params());
    let report = net.serve(&mut fl, rounds).expect("serve");
    for v in vehicles {
        v.join().expect("vehicle thread");
    }
    // Clean run: exact reconciliation with comms::round_bytes.
    let (down, up_full, up_sign) = fuiov_fl::comms::round_bytes(dim(), n);
    assert_eq!(report.tx_payload, (rounds * down) as u64);
    let expected_up = match mode {
        UploadMode::FullF32 => up_full,
        UploadMode::Sign2Bit => up_sign,
    };
    assert_eq!(report.rx_payload, (rounds * expected_up) as u64);
    // Framing is exact: one header and one trailer per frame, one frame
    // per vehicle per round in each direction.
    let framing = ((HEADER_LEN + TRAILER_LEN) * n * rounds) as u64;
    assert_eq!(report.tx_overhead, framing, "broadcast framing bytes");
    assert_eq!(report.rx_overhead, framing, "upload framing bytes");
    // The counters move by exactly what the report says the wire moved.
    let moved = Snapshot::capture().delta(&before);
    assert_eq!(moved.counter("net.bytes_tx"), report.tx_payload);
    assert_eq!(moved.counter("net.bytes_rx"), report.rx_payload);
    assert_eq!(
        report.duplicates + report.stale + report.torn + report.timeouts,
        0
    );
    fl
}

#[test]
fn clean_loopback_matches_in_process_bitwise() {
    let (n, rounds) = (4, 3);
    let net_fl = run_networked(n, rounds, UploadMode::FullF32, 0.0);

    let mut clients: Vec<Box<dyn Client>> = (0..n)
        .map(|id| Box::new(make_client(id)) as Box<dyn Client>)
        .collect();
    let active: Vec<usize> = (0..n).collect();
    let mut fl = Server::new(FlConfig::new(rounds, 0.1), SPEC.build(0).params());
    for _ in 0..rounds {
        fl.run_round(&mut clients, &active);
    }

    assert_eq!(bits(net_fl.params()), bits(fl.params()));
    // `record_model(t, ..)` stores the round-*start* model, so history
    // holds rounds 0..rounds; the post-training model is `params()`.
    for t in 0..rounds {
        assert_eq!(
            bits(&net_fl.history().model(t).expect("net model")),
            bits(&fl.history().model(t).expect("local model")),
            "round {t} model diverged"
        );
    }
    for (a, b) in net_fl.summaries().iter().zip(fl.summaries()) {
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.update_norm.to_bits(), b.update_norm.to_bits());
    }
}

#[test]
fn sign_mode_loopback_matches_quantized_in_process_bitwise() {
    let (n, rounds, delta) = (3, 3, 1e-3f32);
    let net_fl = run_networked(n, rounds, UploadMode::Sign2Bit, delta);

    // In-process arm: the same quantise→decode the vehicles apply.
    let mut clients: Vec<HonestClient> = (0..n).map(make_client).collect();
    let mut fl = Server::new(FlConfig::new(rounds, 0.1), SPEC.build(0).params());
    for t in 0..rounds {
        let params = fl.params().to_vec();
        let uploads = clients
            .iter_mut()
            .map(|c| Upload {
                client: c.id(),
                weight: c.weight(),
                grad: GradientDirection::quantize(&c.gradient(&params, t), delta).to_f32(),
            })
            .collect();
        fl.run_round_uploads(uploads);
    }

    assert_eq!(bits(net_fl.params()), bits(fl.params()));
}

/// Per-(round) scripted wire behaviour for one vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Voluntary dropout: explicit Skip frame.
    Dropout,
    /// Cut the upload frame after `1 + cut % (len-1)` bytes, then drop
    /// the connection and come back.
    Torn(usize),
    /// Drop the connection before uploading, then come back.
    Drop,
    /// Transmit the upload twice back to back.
    Duplicate,
}

/// A protocol-speaking vehicle with fault hooks — the raw-socket twin of
/// `NetVehicle`, scripted by the fault plan.
fn run_scripted(mut inner: HonestClient, addr: NetAddr, actions: BTreeMap<Round, Action>) {
    let id = inner.id();
    let d = dim();
    let weight = Client::weight(&inner);
    let connect = |attempts: u32| -> Option<fuiov_net::Conn> {
        let hello = encode_register(id, weight, d);
        for _ in 0..attempts {
            if let Ok(mut c) = fuiov_net::Conn::connect(&addr) {
                if c.write_all(&hello).is_ok() {
                    return Some(c);
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    };
    let mut conn = match connect(50) {
        Some(c) => c,
        None => return,
    };
    let mut frame = Vec::new();
    let mut upload = Vec::new();
    let mut scratch = Vec::new();
    loop {
        match read_frame(&mut conn, &mut frame) {
            Ok(true) => {}
            // Clean close or error: the server may be done, or this is
            // the aftermath of our own injected drop — try to come back,
            // give up quietly if the listener is gone.
            Ok(false) | Err(_) => match connect(5) {
                Some(c) => {
                    conn = c;
                    continue;
                }
                None => return,
            },
        }
        let Ok((kind, round, _base, payload)) = check_record(&frame) else {
            return;
        };
        match kind {
            RecordKind::RoundModel => {
                let params: Vec<f32> = payload
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("chunk")))
                    .collect();
                match actions.get(&round).copied() {
                    Some(Action::Dropout) => {
                        let skip = encode_control(ControlCode::Skip, round as u64);
                        if conn.write_all(&skip).is_err() {
                            return;
                        }
                    }
                    Some(Action::Drop) => {
                        conn.shutdown(Shutdown::Both);
                        match connect(5) {
                            Some(c) => conn = c,
                            None => return,
                        }
                    }
                    Some(Action::Torn(cut)) => {
                        let grad = inner.gradient(&params, round);
                        encode_grad_upload_into(&mut upload, &mut scratch, round, id, &grad);
                        let cut = 1 + cut % (upload.len() - 1);
                        let _ = conn.write_all(&upload[..cut]);
                        conn.shutdown(Shutdown::Both);
                        match connect(5) {
                            Some(c) => conn = c,
                            None => return,
                        }
                    }
                    other => {
                        let grad = inner.gradient(&params, round);
                        encode_grad_upload_into(&mut upload, &mut scratch, round, id, &grad);
                        if conn.write_all(&upload).is_err() {
                            return;
                        }
                        if other == Some(Action::Duplicate) && conn.write_all(&upload).is_err() {
                            return;
                        }
                    }
                }
            }
            RecordKind::Control => match round as u64 {
                0 => return, // Done
                _ => continue,
            },
            _ => return,
        }
    }
}

#[test]
fn fault_seeds_replay_in_process_bitwise() {
    let (n, rounds) = (4, 6);
    for seed in [101u64, 202] {
        let plan = FaultPlan::sample(seed, &FaultSpec::small(n, rounds, dim()));

        // Script every vehicle from the plan: client-side dropouts plus
        // the wire fault family. A dropout on the same cell as a wire
        // fault wins — no upload exists to tear or duplicate.
        let mut actions: Vec<BTreeMap<Round, Action>> = vec![BTreeMap::new(); n];
        for f in plan.net_faults() {
            match *f {
                Fault::TornFrame { client, round, cut } => {
                    actions[client].insert(round, Action::Torn(cut));
                }
                Fault::ConnectionDrop { client, round } => {
                    actions[client].insert(round, Action::Drop);
                }
                Fault::DuplicateUpload { client, round } => {
                    actions[client].insert(round, Action::Duplicate);
                }
                _ => unreachable!("net_faults returns only wire faults"),
            }
        }
        for (client, acts) in actions.iter_mut().enumerate() {
            for round in 0..rounds {
                if plan.is_dropout(client, round) {
                    acts.insert(round, Action::Dropout);
                }
            }
        }

        let _serving = serve_lock();
        let cfg = NetConfig::new(NetAddr::parse("tcp:127.0.0.1:0"), n)
            .with_deadline(Duration::from_millis(800));
        let mut net = NetServer::bind(cfg).expect("bind");
        let addr = net.local_addr().clone();
        let vehicles: Vec<_> = (0..n)
            .map(|id| {
                let addr = addr.clone();
                let acts = actions[id].clone();
                std::thread::spawn(move || run_scripted(make_client(id), addr, acts))
            })
            .collect();
        let mut fl = Server::new(FlConfig::new(rounds, 0.1), SPEC.build(0).params());
        let report = net.serve(&mut fl, rounds).expect("serve");
        for v in vehicles {
            v.join().expect("vehicle thread");
        }

        // The wire was genuinely noisy…
        let thinned = fl.summaries().iter().any(|s| s.participants.len() < n);
        assert!(
            thinned,
            "seed {seed}: fault plan produced no missing upload"
        );

        // …but replaying the observed participation set in process
        // reproduces every round bit for bit.
        let mut clients: Vec<HonestClient> = (0..n).map(make_client).collect();
        let mut replay = Server::new(FlConfig::new(rounds, 0.1), SPEC.build(0).params());
        for s in fl.summaries().to_vec() {
            let params = replay.params().to_vec();
            let uploads = s
                .participants
                .iter()
                .map(|&c| Upload {
                    client: c,
                    weight: Client::weight(&clients[c]),
                    grad: clients[c].gradient(&params, s.round),
                })
                .collect();
            replay.run_round_uploads(uploads);
        }
        assert_eq!(
            bits(fl.params()),
            bits(replay.params()),
            "seed {seed}: networked final params diverge from replay"
        );
        for t in 0..rounds {
            assert_eq!(
                bits(&fl.history().model(t).expect("net model")),
                bits(&replay.history().model(t).expect("replay model")),
                "seed {seed}: round {t} model diverged"
            );
        }
        // The injected wire faults actually registered in the counters.
        assert!(
            report.torn + report.duplicates + report.skips + report.timeouts > 0,
            "seed {seed}: no wire fault left a trace"
        );
    }
}
