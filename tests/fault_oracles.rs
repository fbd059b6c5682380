//! Top-level smoke test wiring the fault-injection harness into the main
//! crate's integration suite: plans are seed-reproducible, cover the full
//! fault taxonomy, and the unlearning pipeline degrades into typed errors
//! (never panics) when its inputs are corrupted.

use fuiov_core::UnlearnError;
use fuiov_storage::segment::{self, SegmentDecodeError};
use fuiov_testkit::{CanonicalRun, Corruptor, FaultPlan, FaultSpec};
use std::sync::Arc;

#[test]
fn fault_plans_are_reproducible_and_cover_the_taxonomy() {
    let spec = FaultSpec::small(3, 6, 100);
    let a = FaultPlan::sample(123, &spec);
    assert_eq!(a, FaultPlan::sample(123, &spec));
    assert!(
        a.classes().len() >= 5,
        "a plan must exercise at least 5 fault classes"
    );
}

#[test]
fn faulted_end_to_end_run_degrades_gracefully() {
    let scenario = CanonicalRun::standard();
    let dim = scenario.initial_params().len();
    let plan = Arc::new(FaultPlan::sample(
        42,
        &FaultSpec::small(scenario.clients, scenario.rounds, dim),
    ));
    let run = scenario.train_faulted(&plan);
    assert!(run.params.iter().all(|v| v.is_finite()));

    // The final model survives a persistence round-trip but every planned
    // corruption of the blob is caught with a typed error.
    let blob = segment::encode_keyframe(scenario.rounds, &run.params);
    assert_eq!(segment::decode_keyframe(&blob).unwrap().1.len(), dim);
    for raw in plan.truncations() {
        let cut = Corruptor::truncate(&blob, raw);
        assert_eq!(
            segment::decode_keyframe(&cut),
            Err(SegmentDecodeError::Truncated)
        );
    }

    // Unlearning on the faulted history: success or a typed error.
    if let Err(e) = scenario.recover_forgotten(&run.history, |_, _| {}) {
        let _typed: UnlearnError = e;
    }
}

#[test]
fn cold_spilled_history_recovers_bitwise_identically() {
    // Tiering oracle: force every checkpoint and direction map out to the
    // spill file under a zero in-memory budget, drop the decode caches,
    // and replay. Streaming rounds back through the segment tier must
    // reproduce the all-in-memory recovery bit for bit.
    use fuiov_core::calibrate_lr;
    use fuiov_testkit::bitwise_eq;

    let scenario = CanonicalRun::standard();
    let run = scenario.train();
    let hot = scenario.recover_forgotten(&run.history, |_, _| {}).unwrap();

    let mut cold_store = run.history.clone();
    cold_store.set_budget(Some(0));
    cold_store.force_spill_all();
    cold_store.invalidate_caches();
    assert_eq!(cold_store.tier_stats().decode_errors, 0);
    assert!(
        cold_store.spilled_bytes() > 0,
        "budget 0 must spill the store"
    );

    let cold = scenario.recover_forgotten(&cold_store, |_, _| {}).unwrap();
    assert!(
        bitwise_eq(&hot.params, &cold.params),
        "spilled replay must match the in-memory replay bit for bit"
    );
    assert_eq!(hot.rounds_replayed, cold.rounds_replayed);
    assert_eq!(hot.estimator_fallbacks, cold.estimator_fallbacks);
    assert_eq!(
        calibrate_lr(&run.history).map(f32::to_bits),
        calibrate_lr(&cold_store).map(f32::to_bits),
        "calibration must be tier-invariant"
    );

    assert_eq!(
        cold_store.tier_stats().decode_errors,
        0,
        "clean store, clean decodes"
    );
}

#[test]
fn fedrecover_baseline_is_tier_invariant() {
    // The FedRecover baseline streams rounds through the same RoundView
    // path as core recovery; spilling the whole history to disk must not
    // move a single bit of its output.
    use fuiov_baselines::{fedrecover, FedRecoverConfig};
    use fuiov_core::recover::NoOracle;
    use fuiov_storage::history::FullGradientStore;
    use fuiov_storage::HistoryStore;
    use fuiov_testkit::bitwise_eq;

    // Synthetic quadratic federation: client c pulls toward its own
    // target, client 1 (forgotten) only joins at round 2.
    let (dim, rounds, clients, lr) = (6usize, 12usize, 4usize, 0.05f32);
    let mut h = HistoryStore::new(1e-6);
    let mut fs = FullGradientStore::new();
    for c in 0..clients {
        h.record_join(c, if c == 1 { 2 } else { 0 });
    }
    let mut w: Vec<f32> = (0..dim).map(|j| 0.3 * (j as f32 + 1.0)).collect();
    for t in 0..rounds {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        for c in 0..clients {
            if c == 1 && t < 2 {
                continue;
            }
            let target: Vec<f32> = (0..dim).map(|j| ((c + j) % 3) as f32).collect();
            let g: Vec<f32> = w.iter().zip(&target).map(|(a, b)| a - b).collect();
            h.record_gradient(t, c, &g);
            fs.record(t, c, g.clone());
            grads.push(g);
        }
        let n = grads.len() as f32;
        for j in 0..dim {
            let mean: f32 = grads.iter().map(|g| g[j]).sum::<f32>() / n;
            w[j] -= lr * mean;
        }
    }
    h.record_model(rounds, w);

    let mut cold = h.clone();
    cold.set_budget(Some(0));
    cold.force_spill_all();
    cold.invalidate_caches();

    let cfg = FedRecoverConfig::new(lr);
    let hot = fedrecover(&h, &fs, 1, &cfg, &mut NoOracle).unwrap();
    let spilled = fedrecover(&cold, &fs, 1, &cfg, &mut NoOracle).unwrap();
    assert!(
        bitwise_eq(&hot.params, &spilled.params),
        "fedrecover must be tier-invariant"
    );
    assert_eq!(hot.rounds_replayed, spilled.rounds_replayed);
    assert_eq!(cold.tier_stats().decode_errors, 0);
}

#[test]
fn forgetting_after_everyone_left_is_a_typed_error() {
    // The regression the testkit PR fixed: when no remaining vehicle has
    // any record in the replay window, recovery must report
    // EmptyMembershipWindow rather than silently returning the
    // backtracked model.
    use fuiov_core::{recover_set, NoOracle, RecoveryConfig};
    use fuiov_storage::HistoryStore;
    let mut h = HistoryStore::new(1e-6);
    for t in 0..=3 {
        h.record_model(t, vec![t as f32; 4]);
    }
    h.record_join(0, 0);
    h.record_gradient(0, 0, &[0.5, -0.5, 0.5, -0.5]);
    h.record_gradient(1, 0, &[0.5, -0.5, 0.5, -0.5]);
    h.record_leave(0, 1);
    h.record_join(1, 2);
    h.record_gradient(2, 1, &[0.5, -0.5, 0.5, -0.5]);

    let cfg = RecoveryConfig::new(0.1);
    assert_eq!(
        recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap_err(),
        UnlearnError::EmptyMembershipWindow {
            start_round: 2,
            end_round: 3
        }
    );
}
