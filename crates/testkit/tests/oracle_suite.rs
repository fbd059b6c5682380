//! Differential and metamorphic oracles over the canonical run.
//!
//! - recovered-vs-retrained divergence bound (differential, vs the gold
//!   standard baseline);
//! - serial vs parallel client fan-out bitwise identity;
//! - history/checkpoint save→load round-trip identity, including the
//!   directions of rounds without a model and the recovery computed from
//!   a reloaded history;
//! - unlearning a never-joined client is a typed no-op;
//! - forget→recover is idempotent under re-run.

use fuiov_baselines::retrain;
use fuiov_core::{backtrack_set, recover_set, NoOracle, RecoveryConfig, UnlearnError};
use fuiov_storage::segment::{decode_history, encode_history};
use fuiov_testkit::oracles::{checkpoint_roundtrip_identity, history_roundtrip_identity};
use fuiov_testkit::{bitwise_eq, rel_l2_divergence, thread_lock, CanonicalRun};

#[test]
fn recovered_model_stays_near_the_retrained_reference() {
    let scenario = CanonicalRun::standard();
    let run = scenario.train();
    let recovered = scenario.recover_forgotten(&run.history, |_, _| {}).unwrap();
    let mut clients = scenario.make_clients();
    let retrained = retrain(
        scenario.initial_params(),
        scenario.fl_config(),
        &mut clients,
        &scenario.schedule(),
        scenario.forgotten,
    );

    let div_recovered = rel_l2_divergence(&recovered.params, &retrained);
    assert!(div_recovered.is_finite(), "divergence must be finite");
    // Differential bound: recovery replays only stored ±1 directions, so
    // it will not match retraining bitwise, but it must stay in the same
    // region of parameter space. The canonical run sits near 0.06; the
    // bound catches order-of-magnitude regressions.
    assert!(
        div_recovered < 0.5,
        "recovered model diverged from retrained reference: {div_recovered}"
    );
    // Metamorphic: replaying rounds F..T must bring the model *closer* to
    // the retrained reference than backtracking alone — otherwise the
    // recovery stage adds nothing over Eq. 5.
    let backtracked = run.history.model(scenario.forgotten_joins).unwrap();
    assert!(!bitwise_eq(&recovered.params, &backtracked));
    let div_backtracked = rel_l2_divergence(&backtracked, &retrained);
    assert!(
        div_recovered < div_backtracked,
        "recovery did not improve on backtracking: {div_recovered} >= {div_backtracked}"
    );
}

#[test]
fn serial_and_parallel_client_paths_are_bitwise_identical() {
    let _guard = thread_lock();
    let scenario = CanonicalRun::standard();
    let parallel = scenario.train();
    let serial = scenario.train_serial();
    assert!(
        bitwise_eq(&parallel.params, &serial.params),
        "parallel fan-out must reproduce the serial reference bit for bit"
    );
    for ((ra, a), (rb, b)) in parallel.round_params.iter().zip(&serial.round_params) {
        assert_eq!(ra, rb);
        assert!(bitwise_eq(a, b), "round {ra} diverged");
    }
}

#[test]
fn save_load_roundtrip_preserves_history_and_recovery() {
    let scenario = CanonicalRun::standard();
    let run = scenario.train();
    checkpoint_roundtrip_identity(&run.params).unwrap();
    history_roundtrip_identity(&run.history).unwrap();

    let reloaded = decode_history(&encode_history(&run.history).unwrap()).unwrap();
    let from_original = scenario.recover_forgotten(&run.history, |_, _| {}).unwrap();
    let from_reloaded = scenario.recover_forgotten(&reloaded, |_, _| {}).unwrap();
    assert!(
        bitwise_eq(&from_original.params, &from_reloaded.params),
        "recovery from a reloaded history must be bitwise identical"
    );
    assert_eq!(from_original.rounds_replayed, from_reloaded.rounds_replayed);
    assert_eq!(
        from_original.estimator_fallbacks,
        from_reloaded.estimator_fallbacks
    );
}

#[test]
fn history_roundtrip_keeps_directions_of_rounds_without_a_model() {
    // Thinning keeps the endpoints, every third round and the join round;
    // the other rounds keep only their directions, which replay reads.
    let scenario = CanonicalRun::standard();
    let run = scenario.train();
    let thin = run.history.thinned_models(3);
    assert!(thin.rounds().len() < thin.direction_rounds().len());
    history_roundtrip_identity(&thin).unwrap();

    let mut lost = run.history;
    lost.remove_model(scenario.rounds - 1).unwrap();
    history_roundtrip_identity(&lost).unwrap();
}

#[test]
fn unlearning_a_never_joined_client_is_a_typed_noop() {
    let scenario = CanonicalRun::standard();
    let run = scenario.train();
    let snapshot = encode_history(&run.history).unwrap();
    let cfg = RecoveryConfig::new(0.3);
    assert_eq!(
        backtrack_set(&run.history, &[99]).unwrap_err(),
        UnlearnError::UnknownClient(99)
    );
    assert_eq!(
        recover_set(&run.history, &[99], &cfg, &mut NoOracle, |_, _| {}).unwrap_err(),
        UnlearnError::UnknownClient(99)
    );
    assert_eq!(
        encode_history(&run.history).unwrap(),
        snapshot,
        "a rejected request must leave the history byte-identical"
    );
}

#[test]
fn recovery_is_idempotent_under_rerun() {
    let scenario = CanonicalRun::standard();
    let run = scenario.train();
    let mut rounds_a = Vec::new();
    let mut rounds_b = Vec::new();
    let a = scenario
        .recover_forgotten(&run.history, |t, p| rounds_a.push((t, p.to_vec())))
        .unwrap();
    let b = scenario
        .recover_forgotten(&run.history, |t, p| rounds_b.push((t, p.to_vec())))
        .unwrap();
    assert!(
        bitwise_eq(&a.params, &b.params),
        "re-running recovery drifted"
    );
    assert_eq!(a.update_norms.len(), b.update_norms.len());
    for (x, y) in a.update_norms.iter().zip(&b.update_norms) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(rounds_a.len(), rounds_b.len());
    for ((ta, pa), (tb, pb)) in rounds_a.iter().zip(&rounds_b) {
        assert_eq!(ta, tb);
        assert!(bitwise_eq(pa, pb), "replayed round {ta} drifted");
    }
}
