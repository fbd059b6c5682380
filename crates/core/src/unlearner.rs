//! High-level unlearning API tying backtracking and recovery together.

use crate::backtrack::{backtrack, BacktrackResult};
use crate::error::UnlearnError;
use crate::recover::{recover, GradientOracle, NoOracle, RecoveryConfig, RecoveryOutcome};
use fuiov_fl::Client;
use fuiov_storage::{ClientId, HistoryStore};

/// The server-side unlearning engine.
///
/// Wraps a [`HistoryStore`] (recorded during normal training by
/// `fuiov_fl::Server`) and executes the paper's pipeline: forget via
/// backtracking (Eq. 5), then recover by replaying rounds `F..T` with
/// Cauchy-MVT gradient estimation (Eq. 6), L-BFGS Hessian approximation
/// (Algorithm 2) and element-wise clipping (Eq. 7).
///
/// ```no_run
/// use fuiov_core::{RecoveryConfig, Unlearner};
/// # fn demo(history: fuiov_storage::HistoryStore) -> Result<(), fuiov_core::UnlearnError> {
/// let unlearner = Unlearner::new(&history, RecoveryConfig::new(1e-4));
/// let outcome = unlearner.forget_and_recover(42)?; // erase client 42
/// println!("recovered model has {} params", outcome.params.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Unlearner<'h> {
    history: &'h HistoryStore,
    config: RecoveryConfig,
}

impl<'h> Unlearner<'h> {
    /// Creates an unlearner over a recorded history.
    pub fn new(history: &'h HistoryStore, config: RecoveryConfig) -> Self {
        Unlearner { history, config }
    }

    /// The recovery configuration in force.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Forgets `client` by backtracking only (Eq. 5) — the unlearned,
    /// unrecovered model `w̄ = w_F`.
    ///
    /// # Errors
    ///
    /// See [`backtrack`].
    pub fn forget(&self, client: ClientId) -> Result<BacktrackResult, UnlearnError> {
        backtrack(self.history, client)
    }

    /// Full pipeline with no online vehicles (history-only recovery — the
    /// paper's headline setting).
    ///
    /// # Errors
    ///
    /// See [`recover`].
    pub fn forget_and_recover(&self, client: ClientId) -> Result<RecoveryOutcome, UnlearnError> {
        recover(self.history, client, &self.config, &mut NoOracle, |_, _| {})
    }

    /// Full pipeline with an oracle for still-online vehicles and a
    /// per-round trace callback.
    ///
    /// # Errors
    ///
    /// See [`recover`].
    pub fn forget_and_recover_with(
        &self,
        client: ClientId,
        oracle: &mut dyn GradientOracle,
        on_round: impl FnMut(fuiov_storage::Round, &[f32]),
    ) -> Result<RecoveryOutcome, UnlearnError> {
        recover(self.history, client, &self.config, oracle, on_round)
    }
}

/// A [`GradientOracle`] backed by a pool of live [`Client`]s — the paper's
/// "dispatch historical models to still-online vehicles" mechanism.
///
/// Clients absent from the pool (departed vehicles) yield `None`.
pub struct ClientPoolOracle<'c> {
    clients: Vec<&'c mut Box<dyn Client>>,
}

impl std::fmt::Debug for ClientPoolOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPoolOracle")
            .field("clients", &self.clients.len())
            .finish()
    }
}

impl<'c> ClientPoolOracle<'c> {
    /// Wraps the still-online subset of a client pool.
    pub fn new(clients: Vec<&'c mut Box<dyn Client>>) -> Self {
        ClientPoolOracle { clients }
    }
}

impl GradientOracle for ClientPoolOracle<'_> {
    fn gradient_at(&mut self, client: ClientId, params: &[f32]) -> Option<Vec<f32>> {
        let c = self.clients.iter_mut().find(|c| c.id() == client)?;
        // Round number is irrelevant for a dispatched model; use 0 so the
        // computation is deterministic.
        Some(c.gradient(params, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuiov_data::{Dataset, DigitStyle};
    use fuiov_fl::mobility::{ChurnSchedule, Membership};
    use fuiov_fl::{FlConfig, HonestClient, Server};
    use fuiov_nn::ModelSpec;

    fn trained_server(
        rounds: usize,
        n_clients: usize,
        forgotten: usize,
    ) -> (Server, Vec<Box<dyn Client>>) {
        let spec = ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        };
        let data = Dataset::digits(20 * n_clients, &DigitStyle::small(), 11);
        let parts = fuiov_data::partition::partition_iid(data.len(), n_clients, 11);
        let mut clients: Vec<Box<dyn Client>> = parts
            .into_iter()
            .enumerate()
            .map(|(id, idx)| {
                Box::new(HonestClient::new(id, spec, data.subset(&idx), 10, 11)) as Box<dyn Client>
            })
            .collect();
        let cfg = FlConfig::new(rounds, 0.3)
            .batch_size(10)
            .parallel_clients(false);
        let mut server = Server::new(cfg, spec.build(7).params());
        let mut schedule = ChurnSchedule::static_membership(n_clients, rounds);
        schedule.set_membership(
            forgotten,
            Membership {
                joined: 2,
                leaves_after: None,
                dropouts: vec![],
            },
        );
        server.train(&mut clients, &schedule);
        (server, clients)
    }

    #[test]
    fn end_to_end_forget_and_recover() {
        let (server, _clients) = trained_server(12, 4, 1);
        let unlearner = Unlearner::new(server.history(), RecoveryConfig::new(0.3));
        let bt = unlearner.forget(1).unwrap();
        assert_eq!(bt.join_round, 2);
        assert_eq!(&bt.params[..], &*server.history().model(2).unwrap());

        let out = unlearner.forget_and_recover(1).unwrap();
        assert_eq!(out.rounds_replayed, 10);
        assert!(out.params.iter().all(|v| v.is_finite()));
        // The recovered model differs from the unlearned model.
        assert!(fuiov_tensor::vector::l2_distance(&out.params, &bt.params) > 1e-6);
        // And from the original final model (the forgotten client's
        // influence is gone).
        assert!(fuiov_tensor::vector::l2_distance(&out.params, server.params()) > 1e-9);
    }

    #[test]
    fn oracle_backed_recovery_queries_live_clients() {
        // Forgotten client joined at 2; another client joins at 3 so its
        // seed window needs the oracle.
        let spec = ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        };
        let n = 4;
        let data = Dataset::digits(20 * n, &DigitStyle::small(), 13);
        let parts = fuiov_data::partition::partition_iid(data.len(), n, 13);
        let mut clients: Vec<Box<dyn Client>> = parts
            .into_iter()
            .enumerate()
            .map(|(id, idx)| {
                Box::new(HonestClient::new(id, spec, data.subset(&idx), 10, 13)) as Box<dyn Client>
            })
            .collect();
        let cfg = FlConfig::new(10, 0.3)
            .batch_size(10)
            .parallel_clients(false);
        let mut server = Server::new(cfg, spec.build(7).params());
        let mut schedule = ChurnSchedule::static_membership(n, 10);
        schedule.set_membership(
            1,
            Membership {
                joined: 2,
                leaves_after: None,
                dropouts: vec![],
            },
        );
        schedule.set_membership(
            3,
            Membership {
                joined: 3,
                leaves_after: None,
                dropouts: vec![],
            },
        );
        server.train(&mut clients, &schedule);

        let unlearner = Unlearner::new(server.history(), RecoveryConfig::new(0.3));
        let mut refs: Vec<&mut Box<dyn Client>> = clients.iter_mut().collect();
        refs.retain(|c| c.id() != 1);
        let mut oracle = ClientPoolOracle::new(refs);
        let out = unlearner
            .forget_and_recover_with(1, &mut oracle, |_, _| {})
            .unwrap();
        assert!(out.oracle_queries > 0);
    }

    #[test]
    fn forgetting_unknown_client_errors() {
        let (server, _) = trained_server(5, 3, 1);
        let unlearner = Unlearner::new(server.history(), RecoveryConfig::new(0.1));
        assert_eq!(
            unlearner.forget(99).unwrap_err(),
            UnlearnError::UnknownClient(99)
        );
    }
}
