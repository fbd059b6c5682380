//! Scale smoke: hierarchical cohorts at 10⁵–10⁶ vehicles.
//!
//! The hierarchy's whole point is that server-side state scales with the
//! *tree*, not the cohort: group-level history (one pseudo-client per
//! RSU leaf) and lazily generated membership keep a million-vehicle round
//! inside a fixed resident-byte envelope, and forgetting one vehicle
//! re-estimates only its own leaf — every sibling leaf replays its
//! stored direction from that same group history.
//!
//! Resident-byte bounds below are *pinned* (measured ~33 KB at 10⁵ and
//! ~75 KB at 10⁶, asserted with ~3× headroom): a regression that
//! reintroduces per-vehicle state blows past them by orders of
//! magnitude, not by noise.
//!
//! Fault seeds follow the fault-matrix convention: `FUIOV_FAULT_SEED`
//! selects a single seed (the CI matrix fans out 101/202), otherwise the
//! in-repo defaults `[11, 29]` run.

use fuiov_core::{recover_vehicle, NoOracle, RecoveryConfig};
use fuiov_fl::hierarchy::{run_cohort, CohortConfig, CohortRun};
use fuiov_storage::TierConfig;

fn seeds() -> Vec<u64> {
    match std::env::var("FUIOV_FAULT_SEED") {
        Ok(s) => vec![s.trim().parse().expect("FUIOV_FAULT_SEED must be a u64")],
        Err(_) => vec![11, 29],
    }
}

/// A bounded-history cohort: every leaf's sign history lives under a
/// 4 KB hot budget, so the run exercises the spill/reload path at scale.
fn cohort(n: usize, rounds: usize, dim: usize, seed: u64) -> CohortRun {
    run_cohort(
        CohortConfig::new(n)
            .group_size(1024)
            .dim(dim)
            .rounds(rounds)
            .seed(seed)
            .tier(TierConfig::bounded(4096)),
    )
}

fn forget_and_check(run: &CohortRun, vehicle: usize, label: &str) -> usize {
    let cfg = RecoveryConfig::new(run.cfg.lr);
    let rec = recover_vehicle(run, vehicle, &cfg, &mut NoOracle)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    assert_eq!(rec.forget.vehicle, vehicle);
    assert_eq!(rec.outcome.params.len(), run.params.len());
    assert!(
        rec.outcome.params.iter().all(|x| x.is_finite()),
        "{label}: recovered model must be finite"
    );
    // Every sibling leaf reuses its group-history direction in every
    // replayed round — only the forgotten vehicle's own leaf is
    // re-estimated.
    let siblings = run.cfg.leaf_count() - 1;
    assert_eq!(
        rec.outcome.sibling_reuses,
        siblings * rec.outcome.rounds_replayed,
        "{label}: subtree replay must reuse every sibling leaf"
    );
    rec.outcome.rounds_replayed
}

#[test]
fn hundred_thousand_vehicles_train_and_forget_under_4kb_budget() {
    const N: usize = 100_000;
    for seed in seeds() {
        let run = cohort(N, 6, 32, seed);
        assert_eq!(run.cfg.leaf_count(), 98);
        // No churn, no sampling: every vehicle participates every round.
        assert_eq!(run.participant_rounds, 6 * N as u64);
        assert!(
            run.params.iter().all(|x| x.is_finite()),
            "seed {seed}: trained model must be finite"
        );
        assert!(
            run.peak_resident_bytes < 96 * 1024,
            "seed {seed}: resident {} B blew the 10⁵-vehicle envelope",
            run.peak_resident_bytes
        );
        let replayed = forget_and_check(&run, (seed as usize * 37) % N, &format!("seed {seed}"));
        assert!(replayed > 0, "seed {seed}: forget must replay something");
        assert_eq!(
            run.history.tier_stats().decode_errors,
            0,
            "seed {seed}: bounded store must decode cleanly"
        );
    }
}

#[test]
fn million_vehicle_cohort_stays_inside_the_resident_envelope() {
    const N: usize = 1_000_000;
    let seed = seeds()[0];
    let run = cohort(N, 2, 16, seed);
    assert_eq!(run.cfg.leaf_count(), 977);
    assert_eq!(run.participant_rounds, 2 * N as u64);
    // The pinned end-to-end bound: training state plus group history for
    // a million vehicles fits in a quarter megabyte —
    // per-vehicle state at this scale would need megabytes at 1 B each.
    assert!(
        run.peak_resident_bytes < 256 * 1024,
        "resident {} B blew the million-vehicle envelope",
        run.peak_resident_bytes
    );
    let replayed = forget_and_check(&run, N / 2, "10^6 cohort");
    assert_eq!(replayed, 2);
}

/// The envelope is sublinear in the cohort: 10× the vehicles must cost
/// far less than 10× the resident bytes (the delta is leaves, never
/// vehicles).
#[test]
fn resident_bytes_scale_with_leaves_not_vehicles() {
    let seed = seeds()[0];
    let small = cohort(10_000, 3, 16, seed);
    let big = cohort(100_000, 3, 16, seed);
    assert!(
        big.peak_resident_bytes < small.peak_resident_bytes * 4,
        "10× vehicles cost {}→{} resident bytes — state is not group-level",
        small.peak_resident_bytes,
        big.peak_resident_bytes
    );
}
