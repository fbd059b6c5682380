//! Vehicle-level unlearning on hierarchical cohorts.
//!
//! A [`CohortRun`] keeps *group-level* history — one pseudo-client per
//! RSU leaf, not one per vehicle — so a forgotten vehicle has no history
//! entry of its own to hand to [`recover_set`](crate::recover_set).
//! This module bridges the gap with the **ghost-client** construction:
//!
//! 1. Snapshot the group history (copy-on-write, O(leaves) not
//!    O(vehicles)).
//! 2. Record a *ghost* pseudo-client (id one past every leaf) whose join
//!    round is the forgotten vehicle's join round. The ghost contributes
//!    no gradients; it exists purely so backtracking lands on `F` = the
//!    vehicle's first participating round.
//! 3. Reduce the vehicle's leaf to its residual FedAvg weight
//!    (`Σ wᵢ − w_v`), then replay with the estimation scope pinned to
//!    that single leaf: every sibling leaf's aggregate is *exactly*
//!    unchanged by the forget, so the replay reads the sibling's stored
//!    direction from the group history verbatim and spends Eq. 6
//!    estimation only on the one leaf whose aggregate actually changed.
//!
//! A vehicle that is alone on its leaf degenerates cleanly: the leaf
//! itself is forgotten with an *empty* scope (pure stored-direction
//! replay — no estimation at all).
//!
//! The payoff is the paper's hierarchy argument at recovery time: cost
//! scales with one root-to-leaf path, not with the cohort. The scope is
//! one-shot only: [`JobService`](crate::JobService) jobs always replay
//! unscoped.

use crate::error::UnlearnError;
use crate::recover::{recover_set_scoped, GradientOracle, RecoveryConfig, RecoveryOutcome};
use fuiov_fl::hierarchy::{CohortRun, VehicleForget};
use fuiov_storage::ClientId;

/// Result of a vehicle-level forget on a hierarchical cohort.
#[derive(Debug, Clone)]
pub struct VehicleRecovery {
    /// The replayed recovery (params, sibling reuses, fallbacks, …).
    pub outcome: RecoveryOutcome,
    /// What was forgotten: vehicle, leaf, weights, join round.
    pub forget: VehicleForget,
}

/// Forgets one vehicle from a hierarchical cohort by subtree-scoped
/// replay of the group history (see the module docs for the ghost-client
/// construction).
///
/// # Errors
///
/// Propagates [`UnlearnError`] from backtracking and replay — notably
/// [`UnlearnError::NothingToRecover`] when the vehicle joined at the
/// final round, and [`UnlearnError::EmptyMembershipWindow`] when the
/// cohort has a single leaf and the vehicle is alone on it.
pub fn recover_vehicle(
    run: &CohortRun,
    vehicle: ClientId,
    config: &RecoveryConfig,
    oracle: &mut dyn GradientOracle,
) -> Result<VehicleRecovery, UnlearnError> {
    vehicle_replay(run, vehicle, true, config, oracle)
}

/// The flat baseline for [`recover_vehicle`]: the same ghost-client
/// forget, but replayed *unscoped* — every leaf pseudo-client gets Eq. 6
/// estimation as if the hierarchy did not exist. Exists so benchmarks
/// (`exp_scale`) can measure what subtree scoping saves on identical
/// inputs; production callers want [`recover_vehicle`].
pub fn recover_vehicle_flat(
    run: &CohortRun,
    vehicle: ClientId,
    config: &RecoveryConfig,
    oracle: &mut dyn GradientOracle,
) -> Result<VehicleRecovery, UnlearnError> {
    vehicle_replay(run, vehicle, false, config, oracle)
}

fn vehicle_replay(
    run: &CohortRun,
    vehicle: ClientId,
    scoped: bool,
    config: &RecoveryConfig,
    oracle: &mut dyn GradientOracle,
) -> Result<VehicleRecovery, UnlearnError> {
    let forget = run.forget_spec(vehicle);
    let mut snapshot = run.history.snapshot();
    let (forgotten, scope): (Vec<ClientId>, Vec<ClientId>) = if forget.singleton {
        // The vehicle IS its leaf: forget the leaf pseudo-client outright;
        // every other leaf is a sibling replayed from stored directions.
        (vec![forget.leaf], Vec::new())
    } else {
        // Ghost pseudo-client pins the backtrack point to the vehicle's
        // join round without disturbing any leaf's recorded directions.
        let ghost: ClientId = run.cfg.leaf_count();
        snapshot.record_join(ghost, forget.join_round);
        snapshot.set_weight(forget.leaf, forget.reduced_leaf_weight);
        (vec![ghost], vec![forget.leaf])
    };
    let outcome = recover_set_scoped(
        &snapshot,
        &forgotten,
        scoped.then_some(scope.as_slice()),
        config,
        oracle,
        |_, _| {},
    )?;
    Ok(VehicleRecovery { outcome, forget })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::NoOracle;
    use fuiov_fl::hierarchy::{run_cohort, CohortConfig};

    fn cohort(n: usize, group: usize) -> CohortRun {
        run_cohort(
            CohortConfig::new(n)
                .group_size(group)
                .dim(16)
                .rounds(6)
                .seed(7),
        )
    }

    #[test]
    fn vehicle_forget_replays_only_its_leaf() {
        let run = cohort(64, 16); // 4 leaves
        let cfg = RecoveryConfig::new(run.cfg.lr);
        let rec = recover_vehicle(&run, 21, &cfg, &mut NoOracle).expect("recovery succeeds");
        assert_eq!(rec.forget.leaf, 1);
        assert!(!rec.forget.singleton);
        assert_eq!(rec.outcome.params.len(), run.params.len());
        assert!(rec.outcome.params.iter().all(|x| x.is_finite()));
        // 3 sibling leaves × every replayed round reuse stored directions.
        assert_eq!(rec.outcome.sibling_reuses, 3 * rec.outcome.rounds_replayed);
    }

    #[test]
    fn singleton_leaf_forgets_the_leaf_itself() {
        let run = cohort(4, 1); // every vehicle is its own leaf
        let cfg = RecoveryConfig::new(run.cfg.lr);
        let rec = recover_vehicle(&run, 2, &cfg, &mut NoOracle).expect("recovery succeeds");
        assert!(rec.forget.singleton);
        // Pure stored-direction replay: nothing in scope, no estimation.
        assert_eq!(rec.outcome.estimator_fallbacks, 0);
        assert_eq!(rec.outcome.sibling_reuses, 3 * rec.outcome.rounds_replayed);
    }

    #[test]
    fn flat_baseline_estimates_every_leaf() {
        let run = cohort(64, 16);
        let cfg = RecoveryConfig::new(run.cfg.lr);
        let flat = recover_vehicle_flat(&run, 21, &cfg, &mut NoOracle).expect("flat succeeds");
        assert_eq!(flat.outcome.sibling_reuses, 0);
        assert!(flat.outcome.params.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn ghost_client_does_not_leak_into_the_live_history() {
        let run = cohort(32, 8);
        let leaves = run.history.clients();
        let cfg = RecoveryConfig::new(run.cfg.lr);
        let _ = recover_vehicle(&run, 5, &cfg, &mut NoOracle).expect("recovery succeeds");
        // The ghost and the reweight lived only in the CoW snapshot.
        assert_eq!(run.history.clients(), leaves);
        assert_eq!(run.history.weight(0), run.cfg.full_leaf_weight(0) as f32);
    }
}
