//! `net-rounds`: loopback TCP rounds through `fuiov-net` in sign-upload
//! mode.
//!
//! Two vehicles (one connection per vCPU of the 2-vCPU reference host)
//! with synthetic-gradient clients train a d = 52,138 model through
//! `NetServer::serve`, with the handler pool bounded at two threads. The
//! clients' gradients cost a few microseconds, so a round (about 1 ms) is
//! the wire layer itself: FUSG framing, FNV seal, vectored broadcast,
//! inbox drain, then the in-process server's aggregation.
//!
//! The run is a series of episodes, each a fresh server, listener and
//! pair of vehicles driving `EPISODE_ROUNDS` rounds from the same initial
//! model. Rounds are timed at vehicle 0, as the interval between two
//! successive model arrivals; the first interval of each episode and the
//! whole first episode are warm-up. Every episode must move exactly the
//! bytes `comms::round_bytes` accounts, see no wire fault, and end at the
//! same model digest.

use crate::bench::{expect_eq, Ctx, DigestGate, Run, Schedule};
use crate::gen::{SplitMix64, SIGN_DELTA};
use crate::trace::ms_between;
use fuiov_fl::{comms, Client, FlConfig, Server};
use fuiov_net::{
    NetAddr, NetConfig, NetRunReport, NetServer, NetVehicle, UploadMode, VehicleConfig,
};
use fuiov_obs::Snapshot;
use fuiov_storage::{ClientId, Round};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Vehicles per episode.
const VEHICLES: usize = 2;
/// Server learning rate.
const LR: f32 = 0.01;
/// Round deadline on both ends: far above a round's cost, so a timeout
/// is a fault, never a slow round.
const DEADLINE: Duration = Duration::from_secs(5);

fn shape(tiny: bool) -> (usize, usize) {
    // (dim, rounds per episode)
    if tiny {
        (64, 20)
    } else {
        (52_138, 200)
    }
}

/// `(round, gradient start, gradient end)` of one vehicle.
type Stamps = Arc<Mutex<Vec<(Round, Instant, Instant)>>>;

/// A vehicle whose local gradient is a cheap deterministic function of
/// the model: a pull toward its own target plus a round-dependent ripple.
struct SynthClient {
    id: ClientId,
    target: Vec<f32>,
    /// Whether to stamp gradient calls: vehicle 0 always (its stamps time
    /// the rounds), the others only in traced episodes.
    stamps: Option<Stamps>,
}

impl Client for SynthClient {
    fn id(&self) -> ClientId {
        self.id
    }

    fn weight(&self) -> f32 {
        50.0 + self.id as f32
    }

    fn gradient(&mut self, params: &[f32], round: Round) -> Vec<f32> {
        let start = Instant::now();
        let ripple = 0.01 * (round % 7) as f32;
        let g = params
            .iter()
            .zip(&self.target)
            .map(|(w, t)| w - t + ripple)
            .collect();
        if let Some(stamps) = &self.stamps {
            stamps
                .lock()
                .expect("stamp log poisoned")
                .push((round, start, Instant::now()));
        }
        g
    }
}

/// One episode's outcome.
struct Episode {
    setup_s: f64,
    /// Gradient stamps per vehicle.
    stamps: Vec<Vec<(Round, Instant, Instant)>>,
    problems: Vec<String>,
}

fn run_episode(
    ctx: &Ctx<'_>,
    dim: usize,
    rounds: usize,
    traced: bool,
    gate: &mut DigestGate,
) -> Episode {
    let start = Instant::now();
    let mut problems = Vec::new();
    let stamps: Vec<Stamps> = (0..VEHICLES).map(|_| Arc::default()).collect();
    let mut rng = SplitMix64::new(ctx.seed, 0x004E_4554);
    let init: Vec<f32> = (0..dim).map(|_| 0.1 * rng.sym()).collect();
    let targets: Vec<Vec<f32>> = (0..VEHICLES)
        .map(|_| (0..dim).map(|_| rng.sym()).collect())
        .collect();
    let config = NetConfig::new(NetAddr::parse("tcp:127.0.0.1:0"), VEHICLES)
        .with_mode(UploadMode::Sign2Bit)
        .with_max_threads(VEHICLES)
        .with_deadline(DEADLINE);
    let mut net = match NetServer::bind(config) {
        Ok(net) => net,
        Err(e) => {
            problems.push(format!("bind: {e}"));
            return Episode {
                setup_s: start.elapsed().as_secs_f64(),
                stamps: Vec::new(),
                problems,
            };
        }
    };
    let addr = net.local_addr().clone();
    let mut fl = Server::new(FlConfig::new(rounds, LR), init)
        .with_tree_fanout(None)
        .with_sample_frac(1.0);

    let (report, vehicles) = std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .into_iter()
            .enumerate()
            .map(|(v, target)| {
                let client = SynthClient {
                    id: v,
                    target,
                    stamps: (v == 0 || traced).then(|| Arc::clone(&stamps[v])),
                };
                let cfg = VehicleConfig::new(addr.clone(), ctx.seed)
                    .with_sign_uploads(SIGN_DELTA)
                    .with_deadline(DEADLINE);
                s.spawn(move || NetVehicle::new(cfg, Box::new(client), dim).run())
            })
            .collect();
        let report = net.serve(&mut fl, rounds);
        let vehicles: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("vehicle thread panicked"))
            .collect();
        (report, vehicles)
    });

    let stamps: Vec<Vec<(Round, Instant, Instant)>> = stamps
        .iter()
        .map(|s| std::mem::take(&mut *s.lock().expect("stamp log poisoned")))
        .collect();
    let setup_s = stamps[0].first().map_or(0.0, |(_, t, _)| {
        t.saturating_duration_since(start).as_secs_f64()
    });
    match report {
        Ok(report) => check_report(&report, dim, rounds, &mut problems),
        Err(e) => problems.push(format!("serve: {e}")),
    }
    for (v, vehicle) in vehicles.into_iter().enumerate() {
        match vehicle {
            Ok(r) => {
                expect_eq(
                    &format!("vehicle {v} uploads"),
                    r.uploads,
                    rounds,
                    &mut problems,
                );
                expect_eq(
                    &format!("vehicle {v} reconnects"),
                    r.reconnects,
                    0,
                    &mut problems,
                );
                expect_eq(&format!("vehicle {v} skips"), r.skips, 0, &mut problems);
            }
            Err(e) => problems.push(format!("vehicle {v}: {e}")),
        }
    }
    expect_eq("server round", fl.round(), rounds, &mut problems);
    expect_eq(
        "vehicle 0 gradient calls",
        stamps[0].len(),
        rounds,
        &mut problems,
    );
    if !fl.params().iter().all(|v| v.is_finite()) {
        problems.push("non-finite parameters".into());
    }
    gate.check(
        fuiov_testkit::golden::digest_params(fl.params()),
        &mut problems,
    );
    Episode {
        setup_s,
        stamps,
        problems,
    }
}

/// Payload bytes must equal `comms::round_bytes` exactly, with no fault.
fn check_report(r: &NetRunReport, dim: usize, rounds: usize, problems: &mut Vec<String>) {
    let (down, _, up_sign) = comms::round_bytes(dim, VEHICLES);
    expect_eq("rounds served", r.rounds, rounds, problems);
    expect_eq(
        "broadcast payload bytes",
        r.tx_payload,
        (rounds * down) as u64,
        problems,
    );
    expect_eq(
        "upload payload bytes",
        r.rx_payload,
        (rounds * up_sign) as u64,
        problems,
    );
    for (what, n) in [
        ("duplicate uploads", r.duplicates),
        ("stale uploads", r.stale),
        ("torn frames", r.torn),
        ("skips", r.skips),
        ("round timeouts", r.timeouts),
    ] {
        expect_eq(what, n, 0, problems);
    }
    expect_eq("forget requests", r.forget_requests.len(), 0, problems);
}

/// Runs socket episodes until the schedule ends.
pub fn net_rounds(ctx: &Ctx<'_>) -> Run {
    let (dim, rounds) = shape(ctx.tiny);
    let mut run = Run::default();
    run.config.extend([
        ("vehicles", VEHICLES.to_string()),
        ("dim", dim.to_string()),
        ("episode_rounds", rounds.to_string()),
        ("transport", "tcp loopback".into()),
        ("upload_mode", "sign2bit".into()),
        ("net_max_threads", VEHICLES.to_string()),
        ("round_deadline_ms", DEADLINE.as_millis().to_string()),
        ("lr", LR.to_string()),
    ]);
    let (down, _, up_sign) = comms::round_bytes(dim, VEHICLES);
    run.bytes_per_op = (down + up_sign) as u64;
    let mut gate = DigestGate::new(ctx, "net-rounds");
    let tracer = ctx.tracer;
    let mut sched = Schedule::start(ctx, 4);
    let mut warm_up = true;
    let mut op_id = 0u32;

    while warm_up || !sched.done() {
        let measured = !std::mem::take(&mut warm_up);
        let traced = measured && sched.next_traced();
        let before = Snapshot::capture();
        let ep = run_episode(ctx, dim, rounds, traced, &mut gate);
        let after = Snapshot::capture();
        run.setup_s.push(ep.setup_s);
        run.tally.ops(rounds as u64, ep.problems);
        if !measured || ep.stamps.is_empty() {
            continue;
        }
        run.counters.add(&before, &after, rounds as u64);
        let lead = &ep.stamps[0];
        for k in 1..lead.len().saturating_sub(1) {
            let ((_, s0, e0), (_, s1, _)) = (lead[k], lead[k + 1]);
            let ms = ms_between(s0, s1);
            if traced {
                run.traced_op_ms.push(ms);
                let root = tracer.record("net.round", "net", None, op_id, true, s0, s1);
                tracer.record(
                    "net.vehicle_grad",
                    "bench",
                    Some(root),
                    op_id,
                    false,
                    s0,
                    e0,
                );
                for other in &ep.stamps[1..] {
                    if let Some(&(_, a, b)) = other.get(k) {
                        tracer.record("net.vehicle_grad", "bench", None, op_id, false, a, b);
                    }
                }
            } else {
                run.op_ms.push(ms);
            }
            op_id += 1;
        }
    }
    (run.digest, run.reference) = gate.finish();
    run
}
