//! The two forget workloads.
//!
//! `forget-paper` is the paper's headline operation: one forget at the
//! paper configuration (n = 100, MNIST-CNN d = 52,138, T = 100, the
//! forgotten vehicle joined at F = 2, s = 2, pair refresh every 21 rounds,
//! L = 1, Hessian on, history fully resident). The op is `calibrate_lr`,
//! `backtrack_set`, then `recover_set` with a per-round callback. Core
//! replay (pair seeding, stacked-HVP sweep, Eq. 6, clip, FedAvg) is nearly
//! all of it; storage only lends hot borrows, and jobs, nn and net do
//! nothing.
//!
//! `forget-storm` submits four single-vehicle forget requests together to
//! an in-memory `JobService` and steps it to completion: checkpoints every
//! 4 rounds, cross-job batching on, GTSRB-CNN shape (n = 100, d = 13,692,
//! T = 100) under a bounded resident budget so replay streams from spill.
//! All four vehicles joined at F = 2, as in the paper's §V attack setting,
//! so the four jobs replay the same rounds and share one fused sweep per
//! round. Sealing checkpoints dominates the op: measured on a 2-vCPU host,
//! it took 8.4–9.5 s at 2.9 GB peak RSS with checkpoints and 2.8 s at
//! 365 MB with the interval pushed past T. At the MNIST-CNN shape the same
//! storm peaked at 11.4 GB, which is why the storm runs at GTSRB shape.

use crate::bench::{combine, expect_eq, Ctx, DigestGate, Run, Schedule};
use crate::gen::{self, SynthSpec};
use crate::trace::Tracer;
use fuiov_core::jobs::{JobConfig, JobService};
use fuiov_core::{backtrack_set, calibrate_lr, recover_set, NoOracle, RecoveryConfig};
use fuiov_obs::Snapshot;
use fuiov_storage::{ClientId, HistoryStore, Round, TierConfig};
use std::time::Instant;

/// Join round `F` of every forgotten vehicle.
const F: Round = 2;
/// Ceiling on `core.fallback_share`: client-rounds replayed without an
/// L-BFGS approximation, over all estimated client-rounds.
pub const FALLBACK_CEILING: f64 = 0.10;
/// Set-ups per run of `forget-paper` (about 1.2 s each) and of
/// `forget-storm` (about 0.3 s each); `setup_s` is their median.
const PAPER_SETUPS: usize = 3;
const STORM_SETUPS: usize = 5;
/// Forget requests per storm.
const STORM_JOBS: usize = 4;
/// Storage scans timed after the measured phase of the traced run.
const SCANS: u32 = 3;
/// Rounds between sealed job checkpoints (the service default).
const CHECKPOINT_INTERVAL: usize = 4;

/// History shape of one forget workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    clients: usize,
    dim: usize,
    rounds: usize,
    /// Resident budget in bytes; `None` keeps the history fully resident.
    budget: Option<usize>,
}

const PAPER: Shape = Shape {
    clients: 100,
    dim: 52_138,
    rounds: 100,
    budget: None,
};
const PAPER_TINY: Shape = Shape {
    clients: 12,
    dim: 600,
    rounds: 12,
    budget: None,
};
const STORM: Shape = Shape {
    clients: 60,
    dim: 13_692,
    rounds: 100,
    budget: Some(8 << 20),
};
const STORM_TINY: Shape = Shape {
    clients: 40,
    dim: 400,
    rounds: 24,
    budget: Some(16 << 10),
};

impl Shape {
    fn spec(&self, late: Vec<ClientId>) -> SynthSpec {
        SynthSpec {
            clients: self.clients,
            dim: self.dim,
            rounds: self.rounds,
            late,
            late_round: F,
            tier: self
                .budget
                .map_or_else(TierConfig::unbounded, TierConfig::bounded),
        }
    }

    fn config(&self, run: &mut Run, forgotten: &[ClientId]) {
        run.config.extend([
            ("clients", self.clients.to_string()),
            ("dim", self.dim.to_string()),
            ("rounds", self.rounds.to_string()),
            ("join_round", F.to_string()),
            ("forgotten", format!("{forgotten:?}")),
            (
                "history_budget_bytes",
                self.budget.map_or("unbounded".into(), |b| b.to_string()),
            ),
            ("buffer_size", "2".into()),
            ("pair_refresh_interval", "21".into()),
            ("clip_threshold", "1".into()),
            ("hessian", "on".into()),
            ("fallback_ceiling", FALLBACK_CEILING.to_string()),
        ]);
    }
}

/// The paper's §V-A3 recovery settings at learning rate `lr`.
fn recovery_config(lr: f32) -> RecoveryConfig {
    RecoveryConfig::new(lr)
        .buffer_size(2)
        .pair_refresh_interval(21)
        .clip_threshold(1.0)
        .divergence_patience(None)
}

/// Builds the history `times` times, timing each, and keeps the last.
fn set_up<T>(run: &mut Run, times: usize, mut build: impl FnMut() -> T) -> T {
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(build());
        run.setup_s.push(start.elapsed().as_secs_f64());
    }
    kept.expect("at least one set-up")
}

fn check_params(what: &str, params: &[f32], problems: &mut Vec<String>) {
    if !params.iter().all(|v| v.is_finite()) {
        problems.push(format!("{what}: non-finite parameters"));
    }
}

fn check_fallbacks(fallbacks: usize, client_rounds: u64, problems: &mut Vec<String>) {
    let share = fallbacks as f64 / client_rounds as f64;
    if share > FALLBACK_CEILING {
        problems.push(format!(
            "fallback share {share:.3} above the {FALLBACK_CEILING} ceiling"
        ));
    }
}

/// Runs `op` once as warm-up and then on the schedule, tracing every
/// other measured op in the traced run. The traced run scans storage only
/// after the measured phase, so traced and untraced ops find the decode
/// cache as the untraced run leaves it. `op` returns its wall time,
/// estimator fallbacks and problems.
fn drive(
    ctx: &Ctx<'_>,
    run: &mut Run,
    h: &HistoryStore,
    min_ops: usize,
    mut op: impl FnMut(u32) -> (f64, usize, Vec<String>),
) -> usize {
    let (_, _, problems) = op(0);
    run.tally.op(problems);
    let mut fallbacks = 0;
    let mut sched = Schedule::start(ctx, min_ops);
    let mut op_id = 1;
    while let Some(traced) = sched.next_op() {
        ctx.tracer.set_active(traced);
        let before = Snapshot::capture();
        let (ms, fb, problems) = op(op_id);
        let after = Snapshot::capture();
        run.counters.add(&before, &after, 1);
        run.tally.op(problems);
        fallbacks += fb;
        if traced {
            run.traced_op_ms.push(ms);
        } else {
            run.op_ms.push(ms);
        }
        ctx.tracer.set_active(false);
        op_id += 1;
    }
    if ctx.trace_mode {
        for k in 0..SCANS {
            scan(ctx.tracer, h, op_id + k);
        }
    }
    fallbacks
}

/// A read-only pass over the replay window through the storage API:
/// `round_view`, its model, and `decode_axpy` of every direction. Timed
/// as its own span outside any op, so it measures storage alone.
fn scan(tracer: &Tracer, h: &HistoryStore, op: u32) {
    let end = h.latest_round().expect("history has rounds");
    let mut acc = vec![0.0f64; h.dim().expect("history has a dimension")];
    let start = Instant::now();
    let mut checksum = 0.0f64;
    for t in F..end {
        let view = h.round_view(t);
        checksum += f64::from(view.model().map_or(0.0, |m| m[0]));
        acc.fill(0.0);
        for (c, dir) in view.directions() {
            dir.decode_axpy(f64::from(h.weight(c)), &mut acc);
        }
        checksum += acc[0];
    }
    std::hint::black_box(checksum);
    tracer.record(
        "storage.scan",
        "storage",
        None,
        op,
        false,
        start,
        Instant::now(),
    );
}

fn storage_layers(run: &mut Run, h: &HistoryStore) {
    run.layers.extend([
        ("storage.resident_mb", h.resident_bytes() as f64 / 1048576.0),
        ("storage.spilled_mb", h.spilled_bytes() as f64 / 1048576.0),
    ]);
}

/// One forget at the paper configuration.
pub fn forget_paper(ctx: &Ctx<'_>) -> Run {
    let shape = if ctx.tiny { PAPER_TINY } else { PAPER };
    let forgotten = gen::pick_clients(ctx.seed, shape.clients, 1);
    let spec = shape.spec(forgotten.clone());
    let mut run = Run::default();
    shape.config(&mut run, &forgotten);
    let h = set_up(&mut run, PAPER_SETUPS, || gen::build(&spec, ctx.seed));
    run.bytes_per_op = gen::window_bytes(&h, F);
    let client_rounds = gen::estimated_client_rounds(&h, &forgotten);
    let replayed = shape.rounds - F;
    let mut gate = DigestGate::new(ctx, "forget-paper");
    let tracer = ctx.tracer;

    let fallbacks = drive(ctx, &mut run, &h, 3, |op_id| {
        let mut problems = Vec::new();
        let op = tracer.open_op("op", "bench", op_id);
        let lr = tracer.child("core.calibrate", "core", &op, || calibrate_lr(&h));
        let bt = tracer.child("core.backtrack", "core", &op, || {
            backtrack_set(&h, &forgotten)
        });
        let Some(lr) = lr else {
            tracer.close(op);
            return (0.0, 0, vec!["calibrate_lr found no step".into()]);
        };
        let recover = tracer
            .active()
            .then(|| tracer.open("core.recover", "core", &op));
        let mut last = recover.map(|r| r.start());
        let mut rounds = 0usize;
        let out = recover_set(
            &h,
            &forgotten,
            &recovery_config(lr),
            &mut NoOracle,
            |_, _| {
                rounds += 1;
                if let (Some(r), Some(prev)) = (&recover, last) {
                    let now = Instant::now();
                    let name = if rounds == 1 {
                        "core.first_round"
                    } else {
                        "core.round"
                    };
                    tracer.record(name, "core", Some(r.id), op_id, false, prev, now);
                    last = Some(now);
                }
            },
        );
        if let Some(r) = recover {
            tracer.close(r);
        }
        let ms = tracer.close(op);

        match bt {
            Ok(bt) => expect_eq("backtrack round", bt.join_round, F, &mut problems),
            Err(e) => problems.push(format!("backtrack_set: {e}")),
        }
        expect_eq(
            "rounds seen by the callback",
            rounds,
            replayed,
            &mut problems,
        );
        let fallbacks = match out {
            Ok(out) => {
                expect_eq(
                    "rounds replayed",
                    out.rounds_replayed,
                    replayed,
                    &mut problems,
                );
                check_params("recovered model", &out.params, &mut problems);
                check_fallbacks(out.estimator_fallbacks, client_rounds, &mut problems);
                gate.check(
                    fuiov_testkit::golden::digest_params(&out.params),
                    &mut problems,
                );
                out.estimator_fallbacks
            }
            Err(e) => {
                problems.push(format!("recover_set: {e}"));
                0
            }
        };
        (ms, fallbacks, problems)
    });

    let measured = (run.op_ms.len() + run.traced_op_ms.len()) as f64;
    run.layers.push((
        "core.fallback_share",
        fallbacks as f64 / (client_rounds as f64 * measured),
    ));
    storage_layers(&mut run, &h);
    (run.digest, run.reference) = gate.finish();
    run
}

/// Four concurrent forgets through the job service, replaying from spill.
pub fn forget_storm(ctx: &Ctx<'_>) -> Run {
    let shape = if ctx.tiny { STORM_TINY } else { STORM };
    let forgotten = gen::pick_clients(ctx.seed, shape.clients, STORM_JOBS);
    let spec = shape.spec(forgotten.clone());
    let mut run = Run::default();
    shape.config(&mut run, &forgotten);
    run.config.extend([
        ("jobs", STORM_JOBS.to_string()),
        ("checkpoint_interval", CHECKPOINT_INTERVAL.to_string()),
        ("cross_job_batching", "on".into()),
    ]);
    let (h, lr) = set_up(&mut run, STORM_SETUPS, || {
        let h = gen::build(&spec, ctx.seed);
        let lr = calibrate_lr(&h).expect("synthetic history has steps to calibrate on");
        (h, lr)
    });
    let job_config = JobConfig::new(recovery_config(lr))
        .checkpoint_interval(CHECKPOINT_INTERVAL)
        .cross_job_batching(true);
    run.bytes_per_op = STORM_JOBS as u64 * gen::window_bytes(&h, F);
    let client_rounds: u64 = forgotten
        .iter()
        .map(|&c| gen::estimated_client_rounds(&h, &[c]))
        .sum();
    let replayed = shape.rounds - F;
    let mut gate = DigestGate::new(ctx, "forget-storm");
    let tracer = ctx.tracer;

    let fallbacks = drive(ctx, &mut run, &h, 2, |op_id| {
        let mut problems = Vec::new();
        let op = tracer.open_op("op", "bench", op_id);
        let mut svc = JobService::new(job_config);
        let ids: Vec<_> = forgotten
            .iter()
            .map(|&c| tracer.child("jobs.submit", "jobs", &op, || svc.submit(&h, &[c])))
            .collect();
        loop {
            let more = if tracer.active() {
                let sealed = || Snapshot::capture().counter("jobs.checkpoints_sealed");
                let before = sealed();
                let start = Instant::now();
                let more = svc.step(&mut NoOracle);
                let end = Instant::now();
                let name = if sealed() > before {
                    "jobs.seal_step"
                } else {
                    "jobs.plain_step"
                };
                tracer.record(name, "jobs", Some(op.id), op_id, false, start, end);
                more
            } else {
                svc.step(&mut NoOracle)
            };
            if !more {
                break;
            }
        }
        let outcomes: Vec<_> = tracer.child("jobs.take", "jobs", &op, || {
            ids.iter().map(|&id| svc.take_outcome(id)).collect()
        });
        drop(svc);
        let ms = tracer.close(op);

        let mut digests = Vec::with_capacity(STORM_JOBS);
        let mut fallbacks = 0;
        for (c, outcome) in forgotten.iter().zip(outcomes) {
            match outcome {
                Some(Ok(out)) => {
                    expect_eq(
                        "rounds replayed",
                        out.rounds_replayed,
                        replayed,
                        &mut problems,
                    );
                    check_params("recovered model", &out.params, &mut problems);
                    digests.push(fuiov_testkit::golden::digest_params(&out.params));
                    fallbacks += out.estimator_fallbacks;
                }
                Some(Err(e)) => problems.push(format!("job forgetting {c}: {e}")),
                None => problems.push(format!("job forgetting {c} did not finish")),
            }
        }
        check_fallbacks(fallbacks, client_rounds, &mut problems);
        if digests.len() == STORM_JOBS {
            gate.check(combine(&digests), &mut problems);
        }
        (ms, fallbacks, problems)
    });

    let measured = (run.op_ms.len() + run.traced_op_ms.len()) as f64;
    run.layers.push((
        "core.fallback_share",
        fallbacks as f64 / (client_rounds as f64 * measured),
    ));
    storage_layers(&mut run, &h);
    (run.digest, run.reference) = gate.finish();
    run
}
