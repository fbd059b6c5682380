//! The canonical MNIST-analogue federation the golden traces pin.
//!
//! One fixed, fully-seeded configuration — small synthetic-digit MLP,
//! three vehicles, six rounds, vehicle 2 joining late at round 2 (so
//! unlearning it exercises a non-trivial backtrack) — used by the
//! golden-trace regression test, the oracle suite and the fault matrix.
//! Everything derives from [`CanonicalRun::seed`]; two runs with the same
//! seed are bitwise identical at any thread count.

use crate::golden::Trace;
use crate::plan::FaultPlan;
use crate::{Corruptor, FaultableClient};
use fuiov_core::{recover_set, NoOracle, RecoveryConfig, RecoveryOutcome, UnlearnError};
use fuiov_data::{Dataset, DigitStyle};
use fuiov_fl::mobility::{ChurnSchedule, Membership};
use fuiov_fl::{Client, FlConfig, HonestClient, Server};
use fuiov_nn::ModelSpec;
use fuiov_storage::{ClientId, HistoryStore, Round};
use std::sync::Arc;

/// The canonical federation (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct CanonicalRun {
    /// Master seed for data, init and client shuffling.
    pub seed: u64,
    /// Number of vehicles.
    pub clients: usize,
    /// Federated rounds `T`.
    pub rounds: usize,
    /// The vehicle the scenario unlearns.
    pub forgotten: ClientId,
    /// Round the forgotten vehicle joins at (its backtrack point `F`).
    pub forgotten_joins: Round,
}

/// Result of training the canonical federation.
pub struct TrainedRun {
    /// Final global parameters `w_T`.
    pub params: Vec<f32>,
    /// The recorded history (spans rounds `0..=T`).
    pub history: HistoryStore,
    /// Parameters observed by the per-round callback, in round order.
    pub round_params: Vec<(Round, Vec<f32>)>,
}

impl CanonicalRun {
    /// The standard scenario: 3 vehicles, 6 rounds, vehicle 2 joins at
    /// round 2 and is the unlearning target.
    pub fn standard() -> Self {
        CanonicalRun {
            seed: 7,
            clients: 3,
            rounds: 6,
            forgotten: 2,
            forgotten_joins: 2,
        }
    }

    /// The MNIST-analogue model (12×12 synthetic digits, one hidden
    /// layer).
    pub fn model_spec(&self) -> ModelSpec {
        ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        }
    }

    /// Initial global parameters (seeded init, shared by every variant of
    /// the run so differential comparisons start from the same point).
    pub fn initial_params(&self) -> Vec<f32> {
        self.model_spec().build(self.seed).params()
    }

    /// Fresh clients over an IID partition of the synthetic digit set.
    pub fn make_clients(&self) -> Vec<Box<dyn Client>> {
        let spec = self.model_spec();
        let data = Dataset::digits(20 * self.clients, &DigitStyle::small(), self.seed);
        let parts = fuiov_data::partition::partition_iid(data.len(), self.clients, self.seed);
        parts
            .into_iter()
            .enumerate()
            .map(|(id, idx)| {
                Box::new(HonestClient::new(
                    id,
                    spec,
                    data.subset(&idx),
                    10,
                    self.seed,
                )) as Box<dyn Client>
            })
            .collect()
    }

    /// The membership schedule: everyone always in range except the
    /// forgotten vehicle, which joins late.
    pub fn schedule(&self) -> ChurnSchedule {
        let mut s = ChurnSchedule::static_membership(self.clients, self.rounds);
        s.set_membership(
            self.forgotten,
            Membership {
                joined: self.forgotten_joins,
                leaves_after: None,
                dropouts: vec![],
            },
        );
        s
    }

    /// Training configuration (parallel client fan-out on, so the run
    /// exercises the determinism contract end to end).
    pub fn fl_config(&self) -> FlConfig {
        FlConfig::new(self.rounds, 0.3).batch_size(10)
    }

    /// Recovery configuration with the learning rate calibrated from the
    /// stored history: replayed ±1 directions have different magnitudes
    /// than true gradients, and [`fuiov_core::calibrate_lr`] measures the
    /// ratio from data the server already has. Falls back to the training
    /// rate on a degenerate history.
    pub fn recovery_config(&self, history: &HistoryStore) -> RecoveryConfig {
        RecoveryConfig::new(fuiov_core::calibrate_lr(history).unwrap_or(0.3))
    }

    /// Trains the federation, recording per-round parameters.
    pub fn train(&self) -> TrainedRun {
        self.train_clients(self.make_clients())
    }

    /// Trains with the client thread pool disabled — the reference serial
    /// path the parallel fan-out must match bitwise.
    pub fn train_serial(&self) -> TrainedRun {
        self.train_clients_with(
            self.fl_config().parallel_clients(false),
            self.make_clients(),
        )
    }

    /// Trains with the provided clients (e.g. fault-wrapped ones).
    pub fn train_clients(&self, clients: Vec<Box<dyn Client>>) -> TrainedRun {
        self.train_clients_with(self.fl_config(), clients)
    }

    /// Trains with an explicit configuration and client set.
    pub fn train_clients_with(
        &self,
        cfg: FlConfig,
        mut clients: Vec<Box<dyn Client>>,
    ) -> TrainedRun {
        let mut server = Server::new(cfg, self.initial_params());
        let mut round_params = Vec::with_capacity(self.rounds);
        server.train_with(&mut clients, &self.schedule(), |t, params| {
            round_params.push((t, params.to_vec()));
        });
        let (params, history, _) = server.into_parts();
        TrainedRun {
            params,
            history,
            round_params,
        }
    }

    /// Trains under a fault plan: clients wrapped in [`FaultableClient`],
    /// then the plan's staleness faults applied to the recorded history.
    pub fn train_faulted(&self, plan: &Arc<FaultPlan>) -> TrainedRun {
        let clients = FaultableClient::wrap_all(self.make_clients(), plan);
        let mut run = self.train_clients(clients);
        Corruptor::apply_stale_faults(&mut run.history, plan);
        run
    }

    /// Unlearns the scenario's forgotten vehicle from `history` (paper
    /// pipeline, no oracle), tracing each replayed round into `on_round`.
    ///
    /// # Errors
    ///
    /// Propagates any [`UnlearnError`] from the pipeline.
    pub fn recover_forgotten(
        &self,
        history: &HistoryStore,
        on_round: impl FnMut(Round, &[f32]),
    ) -> Result<RecoveryOutcome, UnlearnError> {
        recover_set(
            history,
            &[self.forgotten],
            &self.recovery_config(history),
            &mut NoOracle,
            on_round,
        )
    }

    /// The full golden trace: initial params, every training round, the
    /// final model, every recovery round, the recovered model.
    pub fn trace(&self) -> Trace {
        let mut t = Trace::new("canonical-v1", self.seed);
        t.push("init", &self.initial_params());
        let run = self.train();
        for (round, params) in &run.round_params {
            t.push(&format!("train_round_{round}"), params);
        }
        t.push("train_final", &run.params);
        let outcome = self
            .recover_forgotten(&run.history, |round, params| {
                t.push(&format!("recover_round_{round}"), params);
            })
            .expect("canonical recovery must succeed");
        t.push("recover_final", &outcome.params);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::bitwise_eq;

    #[test]
    fn training_is_reproducible() {
        let run_a = CanonicalRun::standard().train();
        let run_b = CanonicalRun::standard().train();
        assert!(bitwise_eq(&run_a.params, &run_b.params));
        assert_eq!(run_a.round_params.len(), 6);
    }

    #[test]
    fn forgotten_vehicle_joins_late() {
        let run = CanonicalRun::standard().train();
        assert_eq!(run.history.join_round(2), Some(2));
        assert_eq!(run.history.clients_in_round(0), vec![0, 1]);
        assert_eq!(run.history.clients_in_round(2), vec![0, 1, 2]);
        // History spans 0..=T.
        assert_eq!(run.history.rounds().len(), 7);
    }

    #[test]
    fn recovery_replays_the_forgetting_window() {
        let scenario = CanonicalRun::standard();
        let run = scenario.train();
        let mut replayed = Vec::new();
        let out = scenario
            .recover_forgotten(&run.history, |t, _| replayed.push(t))
            .unwrap();
        assert_eq!(out.start_round, 2);
        assert_eq!(out.end_round, 6);
        assert_eq!(out.rounds_replayed, 4);
        assert_eq!(replayed.len(), 4);
        assert!(out.params.iter().all(|v| v.is_finite()));
    }
}
