//! Differential oracles for the resumable unlearning job service.
//!
//! The headline contract under test: **resumed == uninterrupted, bitwise,
//! at any crash point and any history budget**. Every test compares job
//! outcomes against the one-shot [`recover_set`] reference on the same
//! history, so concurrency, checkpoint/resume, crash/log-reopen, torn
//! logs, duplicate submissions and tier spills must all be invisible in
//! the output bits.
//!
//! Fault seeds follow the fault-matrix convention: `FUIOV_FAULT_SEED`
//! selects a single seed (the CI matrix fans out 101/202), otherwise the
//! in-repo defaults `[11, 29]` run.

use fuiov_core::jobs::{JobConfig, JobLog, JobService};
use fuiov_core::{recover_set, NoOracle, RecoveryConfig, RecoveryOutcome};
use fuiov_storage::HistoryStore;
use fuiov_testkit::{bitwise_eq, Corruptor, Fault, FaultPlan, FaultSpec};
use proptest::prelude::*;
use std::path::PathBuf;

const DIM: usize = 48;
const ROUNDS: usize = 16;
const CLIENTS: usize = 6;
/// Join rounds per client: staggered so forget sets produce overlapping,
/// nested, and identical membership windows (F = min join of the set).
const JOINS: [usize; 6] = [0, 2, 3, 5, 0, 4];
const LR: f32 = 0.05;

/// Forget sets used across the suite. Backtrack rounds: {3}→5, {1}→2,
/// {2,5}→3, {1,3}→2 — staggered ({3} vs {2,5}), nested ({3} inside {1}),
/// and identical-start ({1} vs {1,3}) window overlaps.
const SETS: [&[usize]; 4] = [&[3], &[1], &[2, 5], &[1, 3]];

fn seeds() -> Vec<u64> {
    match std::env::var("FUIOV_FAULT_SEED") {
        Ok(s) => vec![s.trim().parse().expect("FUIOV_FAULT_SEED must be a u64")],
        Err(_) => vec![11, 29],
    }
}

/// Synthetic federation with staggered joins and period-3 per-round sign
/// alternation. The 2-bit store keeps only gradient *signs*, so a
/// monotone trajectory would decay every L-BFGS pair to `Δg = 0` and the
/// stacked sweep would never engage; the alternation guarantees seeded
/// pairs with positive curvature, a live stack from round F onward, and
/// therefore a non-vacuous cross-job batching comparison.
fn history() -> HistoryStore {
    let mut h = HistoryStore::new(1e-6);
    for (c, &join) in JOINS.iter().enumerate() {
        h.record_join(c, join);
    }
    let mut w: Vec<f32> = (0..DIM).map(|j| 0.3 * (j as f32 + 1.0)).collect();
    for t in 0..ROUNDS {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        for (c, &join) in JOINS.iter().enumerate() {
            if t < join {
                continue;
            }
            let g: Vec<f32> = (0..DIM)
                .map(|j| {
                    let sign = if (t + j) % 3 < 2 { 1.0f32 } else { -1.0 };
                    sign * (1.0 + 0.1 * c as f32 + 0.05 * j as f32)
                })
                .collect();
            h.record_gradient(t, c, &g);
            grads.push(g);
        }
        let n = grads.len() as f32;
        for j in 0..DIM {
            let mean: f32 = grads.iter().map(|g| g[j]).sum::<f32>() / n;
            w[j] -= LR * mean;
        }
    }
    h.record_model(ROUNDS, w);
    h
}

/// Small pair-refresh interval so refreshes and stack rebuilds land
/// *between* checkpoints — the resume path must reproduce them exactly.
fn config() -> RecoveryConfig {
    let mut cfg = RecoveryConfig::new(LR);
    cfg.pair_refresh_interval = 3;
    cfg
}

fn one_shot(h: &HistoryStore, set: &[usize]) -> RecoveryOutcome {
    recover_set(h, set, &config(), &mut NoOracle, |_, _| {}).expect("one-shot recovery succeeds")
}

fn refs(h: &HistoryStore, n: usize) -> Vec<RecoveryOutcome> {
    SETS[..n].iter().map(|s| one_shot(h, s)).collect()
}

fn take_ok(svc: &mut JobService, id: u64) -> RecoveryOutcome {
    svc.take_outcome(id)
        .expect("job must be finished")
        .expect("job must succeed")
}

fn assert_matches_refs(svc: &mut JobService, ids: &[u64], refs: &[RecoveryOutcome], label: &str) {
    for (i, &id) in ids.iter().enumerate() {
        let out = take_ok(svc, id);
        assert!(
            bitwise_eq(&out.params, &refs[i].params),
            "{label}: job {i} diverged from one-shot reference"
        );
        assert_eq!(
            out.rounds_replayed, refs[i].rounds_replayed,
            "{label}: job {i} replayed a different number of rounds"
        );
    }
}

/// Unique scratch path for a job log; removed on a best-effort basis.
fn log_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fuiov-job-oracle-{tag}-{}-{n}.seg",
        std::process::id()
    ))
}

/// Pull the job-fault draws (preempt round, tear cut, duplicate count)
/// out of a seeded plan.
fn job_fault_draws(seed: u64) -> (usize, usize, usize) {
    let plan = FaultPlan::sample(seed, &FaultSpec::small(CLIENTS, ROUNDS, DIM));
    let (mut preempt, mut cut, mut times) = (0usize, 0usize, 1usize);
    for f in plan.job_faults() {
        match f {
            Fault::JobPreempt { round } => preempt = *round,
            Fault::TornJobCheckpoint { cut: c } => cut = *c,
            Fault::DuplicateForget { times: t } => times = *t,
            _ => {}
        }
    }
    (preempt, cut, times)
}

/// N ∈ {1, 2, 4} overlapping jobs, batched and unbatched, must be
/// bitwise identical to the one-shot reference and to serial
/// one-job-at-a-time execution.
#[test]
fn concurrent_jobs_match_one_shot_and_serial_bitwise() {
    let h = history();
    let all_refs = refs(&h, SETS.len());
    // Guard against a vacuous comparison: the Hessian stack must engage
    // (some clients corrected) or batched-vs-unbatched proves nothing.
    for (i, r) in all_refs.iter().enumerate() {
        assert!(
            r.estimator_fallbacks < r.rounds_replayed * (CLIENTS - SETS[i].len()),
            "set {i}: stacked sweep never engaged — oracle is vacuous"
        );
    }
    for n in [1usize, 2, 4] {
        let mut batched = JobService::new(JobConfig::new(config()).checkpoint_interval(3));
        let ids: Vec<_> = SETS[..n].iter().map(|s| batched.submit(&h, s)).collect();
        batched.run_to_completion(&mut NoOracle);
        assert_matches_refs(&mut batched, &ids, &all_refs[..n], "batched");

        let mut unbatched = JobService::new(
            JobConfig::new(config())
                .checkpoint_interval(3)
                .cross_job_batching(false),
        );
        let ids: Vec<_> = SETS[..n].iter().map(|s| unbatched.submit(&h, s)).collect();
        unbatched.run_to_completion(&mut NoOracle);
        assert_matches_refs(&mut unbatched, &ids, &all_refs[..n], "unbatched");

        for (i, set) in SETS[..n].iter().enumerate() {
            let mut serial = JobService::new(JobConfig::new(config()));
            let id = serial.submit(&h, set);
            serial.run_to_completion(&mut NoOracle);
            let out = take_ok(&mut serial, id);
            assert!(
                bitwise_eq(&out.params, &all_refs[i].params),
                "serial job {i} diverged from one-shot reference"
            );
        }
    }
}

/// Preempt every job at every checkpoint boundary: jobs are forced back
/// to `Pending` after each interval and must reactivate from their
/// newest in-memory checkpoint with no bit of drift.
#[test]
fn resume_after_preemption_at_every_checkpoint_boundary() {
    let h = history();
    let all_refs = refs(&h, 2);
    for seed in seeds() {
        let (preempt_round, _, _) = job_fault_draws(seed);
        let interval = 1 + preempt_round % 3; // seeded boundary spacing
        let mut svc = JobService::new(JobConfig::new(config()).checkpoint_interval(interval));
        let ids: Vec<_> = SETS[..2].iter().map(|s| svc.submit(&h, s)).collect();
        let mut steps = 0usize;
        loop {
            let mut active = false;
            for _ in 0..interval {
                active = svc.step(&mut NoOracle);
                steps += 1;
                assert!(steps < 10_000, "seed {seed}: job service made no progress");
                if !active {
                    break;
                }
            }
            if !active {
                break;
            }
            for &id in &ids {
                svc.preempt(id);
            }
        }
        assert_matches_refs(&mut svc, &ids, &all_refs, &format!("preempt seed {seed}"));
    }
}

/// Kill the whole service (drop it) after every possible number of
/// steps, reopen the on-disk log, resubmit the same forget sets, and
/// resume. Resumed outputs must be bitwise identical to the
/// uninterrupted run at *every* crash point.
#[test]
fn crash_and_resume_from_log_at_every_step() {
    let h = history();
    let all_refs = refs(&h, 2);
    for seed in seeds() {
        let (preempt_round, _, _) = job_fault_draws(seed);
        let interval = 1 + preempt_round % 3;
        let cfg = || JobConfig::new(config()).checkpoint_interval(interval);

        // Count the uninterrupted run's steps so we can kill at every one.
        let total = {
            let mut svc = JobService::new(cfg());
            for s in SETS[..2].iter() {
                svc.submit(&h, s);
            }
            let mut total = 0usize;
            while svc.step(&mut NoOracle) {
                total += 1;
                assert!(total < 10_000, "seed {seed}: uninterrupted run stalled");
            }
            total + 1
        };

        for kill_at in 0..=total {
            let path = log_path("crash");
            {
                let (log, logged) = JobLog::open(&path).expect("open fresh log");
                assert!(logged.is_empty(), "fresh log must hold no records");
                let mut svc = JobService::with_log(cfg(), log, logged);
                for s in SETS[..2].iter() {
                    svc.submit(&h, s);
                }
                for _ in 0..kill_at {
                    svc.step(&mut NoOracle);
                }
                // svc dropped here: the crash. Only the log file survives.
            }
            let (log, logged) = JobLog::open(&path).expect("reopen log after crash");
            let mut svc = JobService::with_log(cfg(), log, logged);
            // Resubmission adopts the logged job ids for the same sets.
            let ids: Vec<_> = SETS[..2].iter().map(|s| svc.submit(&h, s)).collect();
            svc.run_to_completion(&mut NoOracle);
            assert_matches_refs(
                &mut svc,
                &ids,
                &all_refs,
                &format!("crash seed {seed} kill_at {kill_at}"),
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Tear the checkpoint log at a seeded byte offset after a crash. The
/// reopened service must fall back to an older sealed checkpoint (or a
/// fresh start) and still converge to the reference bits.
#[test]
fn torn_checkpoint_log_still_resumes_bitwise() {
    let h = history();
    let all_refs = refs(&h, 2);
    for seed in seeds() {
        let (_, cut, _) = job_fault_draws(seed);
        let path = log_path("torn");
        {
            let (log, logged) = JobLog::open(&path).expect("open fresh log");
            let mut svc =
                JobService::with_log(JobConfig::new(config()).checkpoint_interval(2), log, logged);
            for s in SETS[..2].iter() {
                svc.submit(&h, s);
            }
            for _ in 0..5 {
                svc.step(&mut NoOracle); // seal a few checkpoints, then crash
            }
        }
        assert!(
            Corruptor::torn_job_log(&path, cut),
            "seed {seed}: log must exist and be torn"
        );
        let (log, logged) = JobLog::open(&path).expect("reopen torn log");
        let mut svc =
            JobService::with_log(JobConfig::new(config()).checkpoint_interval(2), log, logged);
        let ids: Vec<_> = SETS[..2].iter().map(|s| svc.submit(&h, s)).collect();
        svc.run_to_completion(&mut NoOracle);
        assert_matches_refs(&mut svc, &ids, &all_refs, &format!("torn seed {seed}"));
        let _ = std::fs::remove_file(&path);
    }
}

/// Duplicate forget requests (same membership set, any order) collapse
/// onto one job id and one unit of replay work.
#[test]
fn duplicate_submissions_collapse_onto_one_job() {
    let h = history();
    let all_refs = refs(&h, 3);
    for seed in seeds() {
        let (_, _, times) = job_fault_draws(seed);
        let mut svc = JobService::new(JobConfig::new(config()));
        let ids: Vec<_> = SETS[..3].iter().map(|s| svc.submit(&h, s)).collect();
        for _ in 0..times {
            for (i, s) in SETS[..3].iter().enumerate() {
                assert_eq!(
                    svc.submit(&h, s),
                    ids[i],
                    "seed {seed}: duplicate submission must return the original id"
                );
            }
        }
        // Permuted membership is the same request.
        assert_eq!(svc.submit(&h, &[5, 2]), ids[2]);
        assert_eq!(svc.active_jobs(), 3, "duplicates must not add jobs");
        svc.run_to_completion(&mut NoOracle);
        assert_matches_refs(&mut svc, &ids, &all_refs, &format!("dup seed {seed}"));
    }
}

/// Job outputs must not depend on the history budget: a 4 KB cold store
/// (everything spilled, caches dropped) and the unbounded hot store
/// produce identical bits.
#[test]
fn outcomes_are_invariant_to_history_budget() {
    let h = history();
    let all_refs = refs(&h, SETS.len());
    let mut cold = h;
    cold.set_budget(Some(4096));
    cold.force_spill_all();
    cold.invalidate_caches();

    let mut svc = JobService::new(JobConfig::new(config()).checkpoint_interval(2));
    let ids: Vec<_> = SETS.iter().map(|s| svc.submit(&cold, s)).collect();
    svc.run_to_completion(&mut NoOracle);
    assert_matches_refs(&mut svc, &ids, &all_refs, "4KB budget");
    assert_eq!(
        cold.tier_stats().decode_errors,
        0,
        "cold store must decode cleanly"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sweep membership-window overlap patterns (arbitrary subsets of
    /// the staggered-join clients), submission order, and history
    /// budget: every job's output must equal its one-shot reference
    /// regardless of which other jobs run beside it, in what order they
    /// were submitted, or which tier the history lives in.
    #[test]
    fn job_outputs_independent_of_submission_order_and_budget(
        masks in prop::collection::vec(1usize..16, 1..=3),
        rotate in 0usize..4,
        spill in 0usize..2,
    ) {
        // Each mask bit selects one of the staggered-join clients, so a
        // mask is a membership window; multiple masks give overlapping,
        // nested, identical, or disjoint-in-clients windows.
        let pool = [1usize, 2, 3, 5];
        let budget = if spill == 1 { Some(4096usize) } else { None };
        let h = history();
        let mut sets: Vec<Vec<usize>> = masks
            .iter()
            .map(|m| {
                pool.iter()
                    .enumerate()
                    .filter(|(bit, _)| m & (1 << bit) != 0)
                    .map(|(_, &c)| c)
                    .collect()
            })
            .collect();
        sets.sort();
        sets.dedup();
        let expected: Vec<RecoveryOutcome> =
            sets.iter().map(|s| one_shot(&h, s)).collect();

        let store = match budget {
            None => h,
            Some(b) => {
                let mut cold = h;
                cold.set_budget(Some(b));
                cold.force_spill_all();
                cold.invalidate_caches();
                cold
            }
        };

        // Submit in a rotated order; outcomes are keyed by job id, so
        // the rotation must be unobservable in the bits.
        let k = rotate % sets.len();
        let mut svc = JobService::new(JobConfig::new(config()).checkpoint_interval(2));
        let mut ids = vec![0u64; sets.len()];
        for off in 0..sets.len() {
            let i = (k + off) % sets.len();
            ids[i] = svc.submit(&store, &sets[i]);
        }
        svc.run_to_completion(&mut NoOracle);
        for (i, &id) in ids.iter().enumerate() {
            let out = svc.take_outcome(id)
                .expect("job finished")
                .expect("job succeeded");
            prop_assert!(
                bitwise_eq(&out.params, &expected[i].params),
                "set {:?} diverged (rotate {k}, budget {budget:?})",
                sets[i]
            );
        }
    }
}
