//! `train-cell`: one RSU cell training through `Server::run_round`.
//!
//! Twenty vehicles at the paper's MNIST setup (28×28 digits, 60 samples
//! each, batch 50, the MNIST CNN with d = 52,138) train with sign history
//! recorded. The op is one round. NN forward and backward is nearly all of
//! it (about 93 ms per client gradient, 2 s per round on a 2-vCPU host),
//! so this is where a faster training path would show; the server's share
//! is aggregation and history recording, the write side of what the
//! forget workloads read. Clients run through the server's serial path,
//! on the calling thread. The default parallel path does the same work at
//! pool width 1, but spawns a fresh scoped worker every round, which the
//! scheduler may place on either vCPU and which allocates from its own
//! malloc arena; on a 2-vCPU shared host that made round times and peak
//! RSS swing from run to run (see the README).
//!
//! The run is a series of episodes. Each builds the data, clients and
//! server afresh (a `setup_s` sample) and trains `EPISODE_ROUNDS` rounds
//! from the same initial model, so every episode must end at the same
//! model digest. A set-up costs about 30 ms and an episode about 5 s, so
//! the run first times `EXTRA_SETUPS` set-ups it discards, to give the
//! `setup_s` median enough samples.

use crate::bench::{expect_eq, Ctx, DigestGate, Run, Schedule};
use fuiov_data::{Dataset, DigitStyle};
use fuiov_fl::{comms, Client, FlConfig, HonestClient, Server};
use fuiov_nn::ModelSpec;
use fuiov_obs::Snapshot;
use fuiov_storage::{ClientId, Round};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rounds per episode.
const EPISODE_ROUNDS: usize = 3;
/// Set-ups timed and discarded before the first episode.
const EXTRA_SETUPS: usize = 24;
/// Server learning rate.
const LR: f32 = 0.05;

#[derive(Debug, Clone, Copy)]
struct Shape {
    vehicles: usize,
    samples: usize,
    batch: usize,
    spec: ModelSpec,
    style: DigitStyle,
}

fn shape(tiny: bool) -> Shape {
    if tiny {
        Shape {
            vehicles: 4,
            samples: 10,
            batch: 5,
            spec: ModelSpec::tiny_cnn(1, 12, 10),
            style: DigitStyle::small(),
        }
    } else {
        Shape {
            vehicles: 20,
            samples: 60,
            batch: 50,
            spec: ModelSpec::mnist(),
            style: DigitStyle::default(),
        }
    }
}

/// Client calls timed while a round is traced.
type GradLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// Wraps a client to time its gradient calls while `on` is set.
struct TimedClient {
    inner: HonestClient,
    on: Arc<AtomicBool>,
    log: GradLog,
}

impl Client for TimedClient {
    fn id(&self) -> ClientId {
        self.inner.id()
    }

    fn weight(&self) -> f32 {
        self.inner.weight()
    }

    fn responds_in(&self, round: Round) -> bool {
        self.inner.responds_in(round)
    }

    fn gradient(&mut self, params: &[f32], round: Round) -> Vec<f32> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.gradient(params, round);
        }
        let start = Instant::now();
        let g = self.inner.gradient(params, round);
        self.log
            .lock()
            .expect("gradient log poisoned")
            .push((start, Instant::now()));
        g
    }
}

/// Builds one episode's vehicles and server.
fn set_up(
    ctx: &Ctx<'_>,
    s: &Shape,
    on: &Arc<AtomicBool>,
    log: &GradLog,
) -> (Vec<Box<dyn Client>>, Server) {
    let clients = (0..s.vehicles)
        .map(|v| {
            let data = Dataset::digits(
                s.samples,
                &s.style,
                ctx.seed.wrapping_mul(1_000).wrapping_add(v as u64),
            );
            Box::new(TimedClient {
                inner: HonestClient::new(v, s.spec, data, s.batch, ctx.seed),
                on: Arc::clone(on),
                log: Arc::clone(log),
            }) as Box<dyn Client>
        })
        .collect();
    let config = FlConfig::new(EPISODE_ROUNDS, LR)
        .batch_size(s.batch)
        .parallel_clients(false);
    let server = Server::new(config, s.spec.build(ctx.seed).params())
        .with_tree_fanout(None)
        .with_sample_frac(1.0)
        .with_sampling_seed(ctx.seed);
    (clients, server)
}

/// Trains episodes until the schedule ends.
pub fn train_cell(ctx: &Ctx<'_>) -> Run {
    let s = shape(ctx.tiny);
    let dim = s.spec.param_count();
    let mut run = Run::default();
    run.config.extend([
        ("vehicles", s.vehicles.to_string()),
        ("samples_per_vehicle", s.samples.to_string()),
        ("batch", s.batch.to_string()),
        ("image_side", s.style.size.to_string()),
        ("dim", dim.to_string()),
        ("episode_rounds", EPISODE_ROUNDS.to_string()),
        ("lr", LR.to_string()),
        ("parallel_clients", "off".into()),
        ("tree_fanout", "flat".into()),
        ("sample_frac", "1".into()),
    ]);
    let (down, _, up_sign) = comms::round_bytes(dim, s.vehicles);
    run.bytes_per_op = (down + up_sign) as u64;
    let active: Vec<usize> = (0..s.vehicles).collect();
    let on = Arc::new(AtomicBool::new(false));
    let log: GradLog = Arc::new(Mutex::new(Vec::new()));
    let mut gate = DigestGate::new(ctx, "train-cell");
    let tracer = ctx.tracer;
    let mut sched = Schedule::start(ctx, 3);
    let mut warm_up = true;
    let mut op_id = 0u32;

    for _ in 0..EXTRA_SETUPS {
        let start = Instant::now();
        let built = set_up(ctx, &s, &on, &log);
        run.setup_s.push(start.elapsed().as_secs_f64());
        drop(built);
    }
    while warm_up || !sched.done() {
        let start = Instant::now();
        let (mut clients, mut server) = set_up(ctx, &s, &on, &log);
        run.setup_s.push(start.elapsed().as_secs_f64());
        let mut problems = Vec::new();
        for _ in 0..EPISODE_ROUNDS {
            let traced = !std::mem::take(&mut warm_up) && sched.next_traced();
            tracer.set_active(traced);
            on.store(traced, Ordering::Relaxed);
            let before = Snapshot::capture();
            let op = tracer.open_op("op", "bench", op_id);
            let round = traced.then(|| tracer.open("fl.round", "fl", &op));
            let summary = server.run_round(&mut clients, &active);
            if let Some(round) = round {
                tracer.close(round);
            }
            let ms = tracer.close(op);
            let after = Snapshot::capture();
            if let Some(round) = round {
                for (a, b) in log.lock().expect("gradient log poisoned").drain(..) {
                    tracer.record("nn.client_grad", "nn", Some(round.id), op_id, false, a, b);
                }
            }
            tracer.set_active(false);
            on.store(false, Ordering::Relaxed);
            expect_eq(
                "participants",
                summary.participants.len(),
                s.vehicles,
                &mut problems,
            );
            if op_id > 0 {
                run.counters.add(&before, &after, 1);
                if traced {
                    run.traced_op_ms.push(ms);
                } else {
                    run.op_ms.push(ms);
                }
            }
            op_id += 1;
        }
        if !server.params().iter().all(|v| v.is_finite()) {
            problems.push("non-finite parameters".into());
        }
        gate.check(
            fuiov_testkit::golden::digest_params(server.params()),
            &mut problems,
        );
        run.tally.ops(EPISODE_ROUNDS as u64, problems);
    }
    (run.digest, run.reference) = gate.finish();
    run
}
