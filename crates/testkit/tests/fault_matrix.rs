//! The fault matrix: run the canonical federation under seeded fault
//! plans and check the stack degrades in *typed*, deterministic ways —
//! no panics, no silent corruption.
//!
//! Seeds default to two fixed values; set `FUIOV_FAULT_SEED=<u64>` to
//! reproduce a specific plan (every fault a run suffers derives from that
//! one number).

use fuiov_storage::segment::{self, SegmentDecodeError};
use fuiov_testkit::{bitwise_eq, CanonicalRun, Corruptor, Fault, FaultClass, FaultPlan, FaultSpec};
use std::sync::Arc;

fn seeds() -> Vec<u64> {
    match std::env::var("FUIOV_FAULT_SEED") {
        Ok(s) => vec![s.trim().parse().expect("FUIOV_FAULT_SEED must be a u64")],
        Err(_) => vec![11, 29],
    }
}

fn plan_for(scenario: &CanonicalRun, seed: u64) -> Arc<FaultPlan> {
    let dim = scenario.initial_params().len();
    let spec = FaultSpec::small(scenario.clients, scenario.rounds, dim);
    Arc::new(FaultPlan::sample(seed, &spec))
}

/// Whether `client` is scheduled to be in range at `round`.
fn scheduled(scenario: &CanonicalRun, client: usize, round: usize) -> bool {
    client != scenario.forgotten || round >= scenario.forgotten_joins
}

/// Whether the plan contains at least one fault guaranteed to perturb the
/// trained parameters (see the per-class reasoning inline).
fn has_effective_fault(scenario: &CanonicalRun, plan: &FaultPlan) -> bool {
    let responding = |c: usize, r: usize| scheduled(scenario, c, r) && !plan.is_dropout(c, r);
    plan.faults().iter().any(|f| match *f {
        // A scheduled vehicle that fails to upload changes the aggregate.
        Fault::Dropout { client, round } => scheduled(scenario, client, round),
        // A corrupted upload element always differs from the true one.
        Fault::SignFlip { client, round, .. } => responding(client, round),
        // A stale upload differs only if there *is* an earlier upload.
        Fault::Delay { client, round } => {
            responding(client, round) && (0..round).any(|r| responding(client, r))
        }
        // Doubling one weight shifts FedAvg only with ≥ 2 participants.
        Fault::Duplicate { client, round } => {
            responding(client, round)
                && (0..scenario.clients)
                    .filter(|&c| responding(c, round))
                    .count()
                    >= 2
        }
        // Storage-side faults do not touch the training trajectory.
        _ => false,
    })
}

#[test]
fn plans_cover_the_fault_taxonomy() {
    let scenario = CanonicalRun::standard();
    for seed in seeds() {
        let plan = plan_for(&scenario, seed);
        let classes = plan.classes();
        assert!(
            classes.len() >= 5,
            "seed {seed}: only {} fault classes exercised",
            classes.len()
        );
        for class in FaultClass::ALL {
            assert!(classes.contains(&class), "seed {seed}: missing {class:?}");
        }
        assert_eq!(
            *plan,
            *plan_for(&scenario, seed),
            "plan not reproducible from seed"
        );
    }
}

#[test]
fn faulted_training_stays_finite_and_faults_bite() {
    let scenario = CanonicalRun::standard();
    let clean = scenario.train();
    for seed in seeds() {
        let plan = plan_for(&scenario, seed);
        let run = scenario.train_faulted(&plan);
        assert!(
            run.params.iter().all(|v| v.is_finite()),
            "seed {seed}: faulted training produced non-finite parameters"
        );
        // History invariant: a dropped-out vehicle leaves no trace in its
        // round.
        for f in plan.faults() {
            if let Fault::Dropout { client, round } = *f {
                if scheduled(&scenario, client, round) {
                    assert!(
                        !run.history.clients_in_round(round).contains(&client),
                        "seed {seed}: dropout ({client}, {round}) still recorded"
                    );
                    assert!(run.history.direction(round, client).is_none());
                }
            }
        }
        // Staleness faults that landed really did copy the older record.
        for (client, round, lag) in plan.stale_directions() {
            if let (Some(now), Some(older)) = (
                run.history.direction(round, client),
                round
                    .checked_sub(lag)
                    .and_then(|r| run.history.direction(r, client)),
            ) {
                assert_eq!(
                    now.to_signs(),
                    older.to_signs(),
                    "seed {seed}: stale fault ({client}, {round}, lag {lag}) not applied"
                );
            }
        }
        if has_effective_fault(&scenario, &plan) {
            assert!(
                !bitwise_eq(&run.params, &clean.params),
                "seed {seed}: plan has effective faults but the model is unchanged"
            );
        }
    }
}

#[test]
fn recovery_under_faults_is_typed_never_a_panic() {
    let scenario = CanonicalRun::standard();
    for seed in seeds() {
        let plan = plan_for(&scenario, seed);
        let run = scenario.train_faulted(&plan);
        match scenario.recover_forgotten(&run.history, |_, _| {}) {
            Ok(out) => {
                assert!(
                    out.params.iter().all(|v| v.is_finite()),
                    "seed {seed}: recovered parameters not finite"
                );
                assert_eq!(out.clients, vec![scenario.forgotten]);
            }
            Err(e) => {
                // A typed error is an acceptable degradation; its Display
                // must describe the failure.
                assert!(!e.to_string().is_empty(), "seed {seed}: silent error");
            }
        }
    }
}

#[test]
fn corrupted_checkpoints_fail_with_typed_errors() {
    let scenario = CanonicalRun::standard();
    let run = scenario.train();
    let blob = segment::encode_keyframe(scenario.rounds, &run.params);
    let history_blob = segment::encode_history(&run.history).unwrap();
    for seed in seeds() {
        let plan = plan_for(&scenario, seed);
        assert!(
            !plan.truncations().is_empty(),
            "plans always draw truncations"
        );
        for raw in plan.truncations() {
            let t = Corruptor::truncate(&blob, raw);
            assert_eq!(
                segment::decode_keyframe(&t),
                Err(SegmentDecodeError::Truncated),
                "seed {seed}: {}-byte prefix of a checkpoint must be Truncated",
                t.len()
            );
            let th = Corruptor::truncate(&history_blob, raw);
            assert_eq!(
                segment::decode_history(&th).unwrap_err(),
                SegmentDecodeError::Truncated,
                "seed {seed}: {}-byte prefix of a history file must be Truncated",
                th.len()
            );
        }
    }
    let mut magic = blob.clone();
    Corruptor::scramble_magic(&mut magic);
    assert!(matches!(
        segment::decode_keyframe(&magic),
        Err(SegmentDecodeError::BadMagic(_))
    ));
    let mut version = blob;
    Corruptor::bump_version(&mut version);
    assert_eq!(
        segment::decode_keyframe(&version),
        Err(SegmentDecodeError::BadVersion(0xFFFF))
    );
}

#[test]
fn segment_faults_degrade_to_typed_errors_and_are_counted() {
    let scenario = CanonicalRun::standard();
    for seed in seeds() {
        let plan = plan_for(&scenario, seed);
        assert_eq!(
            plan.segment_faults().len(),
            3,
            "plans floor one fault per segment class"
        );
        let mut run = scenario.train();
        let landed = Corruptor::apply_segment_faults(&mut run.history, &plan);
        assert!(landed >= 1, "seed {seed}: no segment fault landed");
        // Every stored round must now read back as either a clean model or
        // a typed decode error — never a panic.
        let mut typed = 0usize;
        for t in run.history.rounds() {
            match run.history.try_model(t) {
                Ok(_) => {}
                Err(e) => {
                    typed += 1;
                    assert!(!e.to_string().is_empty(), "seed {seed}: silent error");
                    assert!(run.history.model(t).is_none(), "lenient path must agree");
                }
            }
        }
        assert!(
            typed >= 1,
            "seed {seed}: {landed} faults landed but none surfaced"
        );
        assert!(
            run.history.tier_stats().decode_errors >= typed,
            "seed {seed}: decode errors must be counted"
        );
        // Recovery over the damaged store is typed, never a panic.
        match scenario.recover_forgotten(&run.history, |_, _| {}) {
            Ok(out) => assert!(out.params.iter().all(|v| v.is_finite())),
            Err(e) => assert!(!e.to_string().is_empty(), "seed {seed}: silent error"),
        }
    }
}

#[test]
fn lost_replay_checkpoint_is_a_typed_recovery_error() {
    // Drop a model inside the replay window F..T: recovery must return a
    // typed error (or succeed via interpolation when enabled), not panic.
    let scenario = CanonicalRun::standard();
    let mut run = scenario.train();
    assert!(Corruptor::drop_model(
        &mut run.history,
        scenario.forgotten_joins + 1
    ));
    let err = scenario
        .recover_forgotten(&run.history, |_, _| {})
        .expect_err("missing replay model must be reported");
    assert!(
        err.to_string().contains("model"),
        "error should name the missing model: {err}"
    );
}
