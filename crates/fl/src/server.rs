//! The RSU-side federated server.
//!
//! Runs the §III-A training loop: each round, active vehicles download the
//! global parameters, compute local gradients, and the server aggregates
//! (Eq. 1) and steps the model (Eq. 2). Along the way the server records
//! the history the unlearning pipeline needs: per-round global models,
//! per-client gradient *directions* (2-bit packed, threshold δ), join
//! rounds and FedAvg weights.

use crate::aggregate::aggregate_refs_into;
use crate::client::Client;
use crate::config::FlConfig;
use crate::hierarchy::{self, AggregationTree};
use crate::mobility::ChurnSchedule;
use fuiov_storage::history::FullGradientStore;
use fuiov_storage::{ClientId, HistoryStore, Round};
use fuiov_tensor::vector;
use parking_lot::Mutex;

/// Summary of one training round.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    /// The round index.
    pub round: Round,
    /// Clients that submitted gradients.
    pub participants: Vec<ClientId>,
    /// L2 norm of the aggregated update (0 when no one participated).
    pub update_norm: f32,
}

/// One client's round contribution, as delivered by a transport.
///
/// This is the seam between round *arithmetic* and round *delivery*: the
/// in-process path builds uploads by calling [`Client::gradient`]
/// directly, the networked path (`fuiov-net`) decodes them off the wire.
/// Both feed [`Server::run_round_uploads`], so the two transports share
/// every aggregation instruction by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Upload {
    /// The uploading vehicle.
    pub client: ClientId,
    /// Its FedAvg weight `‖Dᵢ‖`.
    pub weight: f32,
    /// The local gradient at the round's broadcast parameters.
    pub grad: Vec<f32>,
}

/// The federated server.
#[derive(Debug)]
pub struct Server {
    cfg: FlConfig,
    params: Vec<f32>,
    round: Round,
    history: HistoryStore,
    full_store: FullGradientStore,
    summaries: Vec<RoundSummary>,
    sampling_seed: u64,
    tree_fanout: Option<usize>,
    sample_frac: f64,
    agg_acc: Vec<f64>,
    agg_out: Vec<f32>,
}

impl Server {
    /// Creates a server starting from the given initial global parameters.
    ///
    /// # Panics
    ///
    /// Panics if `initial_params` is empty.
    pub fn new(cfg: FlConfig, initial_params: Vec<f32>) -> Self {
        assert!(
            !initial_params.is_empty(),
            "Server::new: empty parameter vector"
        );
        let history = HistoryStore::new(cfg.sign_delta);
        Server {
            cfg,
            params: initial_params,
            round: 0,
            history,
            full_store: FullGradientStore::new(),
            summaries: Vec::new(),
            sampling_seed: 0,
            tree_fanout: None,
            sample_frac: 1.0,
            agg_acc: Vec::new(),
            agg_out: Vec::new(),
        }
    }

    /// Sets the seed of the per-round hash sampler (only relevant when
    /// the sampling fraction is below 1, see [`Server::with_sample_frac`]).
    pub fn with_sampling_seed(mut self, seed: u64) -> Self {
        self.sampling_seed = seed;
        self
    }

    /// Sets the RSU/edge aggregation-tree fan-out (default `None` = flat;
    /// a fan-out below 2 never merges anything, so it is flat too). The
    /// tree changes communication accounting only — its reduction is the
    /// flat fold, so the bits are those of flat aggregation (see
    /// [`crate::hierarchy`]).
    pub fn with_tree_fanout(mut self, fanout: Option<usize>) -> Self {
        self.tree_fanout = fanout.filter(|&f| f >= 2);
        self
    }

    /// Sets the per-round hash-sampling fraction (default `1.0` =
    /// everyone; any fraction outside `(0, 1)`, NaN included, means
    /// everyone too). Each in-range vehicle is kept by a seeded
    /// per-(vehicle, round) hash draw (see [`hierarchy::apply_sampling`]).
    pub fn with_sample_frac(mut self, frac: f64) -> Self {
        self.sample_frac = if frac > 0.0 && frac < 1.0 { frac } else { 1.0 };
        self
    }

    /// Current global parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Current round (the next round to run).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The configuration in force.
    pub fn config(&self) -> &FlConfig {
        &self.cfg
    }

    /// The recorded history (models, directions, participation).
    pub fn history(&self) -> &HistoryStore {
        &self.history
    }

    /// The full-precision gradient record (empty unless
    /// `keep_full_gradients` was set).
    pub fn full_store(&self) -> &FullGradientStore {
        &self.full_store
    }

    /// Per-round summaries so far.
    pub fn summaries(&self) -> &[RoundSummary] {
        &self.summaries
    }

    /// Consumes the server, returning `(final params, history, full store)`.
    pub fn into_parts(self) -> (Vec<f32>, HistoryStore, FullGradientStore) {
        (self.params, self.history, self.full_store)
    }

    /// Runs a single round with the clients listed in `active` (indices
    /// into `clients`).
    ///
    /// Inactive clients are untouched. Records the starting model, every
    /// participant's gradient direction, join rounds and weights, then
    /// applies Eq. 2. With no active clients the model is unchanged (the
    /// RSU had no one in range) but the round still advances.
    ///
    /// # Panics
    ///
    /// Panics if any index in `active` is out of range or a client's
    /// gradient dimension doesn't match the model.
    pub fn run_round(&mut self, clients: &mut [Box<dyn Client>], active: &[usize]) -> RoundSummary {
        let t = self.round;
        // Mid-round dropout hook: a polled vehicle may still fail to
        // upload (`Client::responds_in`). Filtering here keeps dropouts
        // out of every record — history, summaries, comms accounting.
        let polled = active.len();
        let active: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&idx| clients[idx].responds_in(t))
            .collect();
        fuiov_obs::counter!("fl.dropouts").add((polled - active.len()) as u64);

        let uploads: Vec<Upload> = self
            .compute_gradients(clients, &active, t)
            .into_iter()
            .map(|(idx, grad)| Upload {
                client: clients[idx].id(),
                weight: clients[idx].weight(),
                grad,
            })
            .collect();
        self.run_round_uploads(uploads)
    }

    /// Runs a single round from already-delivered uploads.
    ///
    /// This is the transport-independent half of [`Server::run_round`]:
    /// everything from history recording through aggregation and the
    /// Eq. 2 step, with no knowledge of how the gradients arrived. The
    /// aggregate is a left fold over `uploads` *in the given order* — a
    /// transport whose arrival order is nondeterministic (the socket
    /// layer) must buffer its round and sort by client id before calling,
    /// which is what makes networked round outcomes bitwise identical to
    /// the in-process loop for the same participation set.
    ///
    /// # Panics
    ///
    /// Panics if any upload's gradient dimension doesn't match the model.
    pub fn run_round_uploads(&mut self, uploads: Vec<Upload>) -> RoundSummary {
        let t = self.round;
        self.history.record_model(t, self.params.clone());

        let mut participants = Vec::with_capacity(uploads.len());
        let mut weights: Vec<f32> = Vec::with_capacity(uploads.len());
        for u in &uploads {
            let id = u.client;
            assert_eq!(
                u.grad.len(),
                self.params.len(),
                "run_round: client {id} gradient dimension mismatch"
            );
            self.history.record_join(id, t);
            self.history.set_weight(id, u.weight);
            self.history.record_gradient(t, id, &u.grad);
            if self.cfg.keep_full_gradients {
                self.full_store.record(t, id, u.grad.clone());
            }
            participants.push(id);
            weights.push(u.weight);
        }

        let tree = self
            .tree_fanout
            .filter(|_| !uploads.is_empty())
            .map(|fanout| AggregationTree::build(uploads.len(), fanout));
        let update_norm = if uploads.is_empty() {
            0.0
        } else {
            // In-place aggregation: `agg_acc`/`agg_out` are recycled
            // across rounds, so the steady state allocates nothing here.
            // A tree reduces in the same participant order (see
            // `hierarchy`), so flat and tree rounds run this one fold.
            let refs: Vec<&[f32]> = uploads.iter().map(|u| u.grad.as_slice()).collect();
            aggregate_refs_into(
                self.cfg.aggregation,
                &refs,
                &weights,
                &mut self.agg_acc,
                &mut self.agg_out,
            );
            if let Some(tree) = &tree {
                fuiov_obs::counter!("hierarchy.nodes_reduced").add(tree.node_count() as u64);
            }
            vector::axpy(-self.cfg.lr, &self.agg_out, &mut self.params);
            vector::l2_norm(&self.agg_out)
        };

        self.round += 1;
        let summary = RoundSummary {
            round: t,
            participants,
            update_norm,
        };
        self.summaries.push(summary.clone());
        if fuiov_obs::enabled() {
            let n = summary.participants.len();
            let (down, up_full, up_sign) = crate::comms::round_bytes(self.params.len(), n);
            fuiov_obs::counter!("fl.rounds").inc();
            fuiov_obs::counter!("fl.participant_rounds").add(n as u64);
            fuiov_obs::counter!("fl.download_bytes").add(down as u64);
            fuiov_obs::counter!("fl.upload_bytes_full").add(up_full as u64);
            fuiov_obs::counter!("fl.upload_bytes_sign").add(up_sign as u64);
            fuiov_obs::histogram!("fl.update_norm_micros").observe_scaled(update_norm as f64);
            if let Some(tree) = &tree {
                let tier = crate::comms::tree_round_bytes(self.params.len(), n, tree);
                fuiov_obs::counter!("hierarchy.up_vehicle_sign_bytes")
                    .add(tier.up_vehicle_sign as u64);
                fuiov_obs::counter!("hierarchy.up_inter_tier_bytes").add(tier.up_inter_full as u64);
                fuiov_obs::counter!("hierarchy.down_inter_tier_bytes").add(tier.down_inter as u64);
            }
        }
        summary
    }

    fn compute_gradients(
        &self,
        clients: &mut [Box<dyn Client>],
        active: &[usize],
        round: Round,
    ) -> Vec<(usize, Vec<f32>)> {
        let params = &self.params;
        if !self.cfg.parallel_clients || active.len() <= 1 {
            let mut out = Vec::with_capacity(active.len());
            for &idx in active {
                let g = clients[idx].gradient(params, round);
                out.push((idx, g));
            }
            return out;
        }

        // Fan out across a bounded pool of scoped threads. `iter_mut`
        // yields disjoint `&mut` borrows, so handing each to exactly one
        // thread's work list is safe without any interior mutability on
        // the clients themselves.
        let active_set: std::collections::HashSet<usize> = active.iter().copied().collect();
        let mut work: Vec<(usize, &mut Box<dyn Client>)> = clients
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| active_set.contains(i))
            .collect();
        // Same worker-count knob as the tensor kernels (FUIOV_THREADS).
        let threads = fuiov_tensor::pool::threads().min(work.len()).max(1);
        let mut assignments: Vec<Vec<(usize, &mut Box<dyn Client>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, item) in work.drain(..).enumerate() {
            assignments[i % threads].push(item);
        }
        let results: Mutex<Vec<(usize, Vec<f32>)>> = Mutex::new(Vec::with_capacity(active.len()));
        crossbeam::scope(|scope| {
            for chunk in assignments {
                let results = &results;
                scope.spawn(move |_| {
                    for (idx, client) in chunk {
                        let g = client.gradient(params, round);
                        results.lock().push((idx, g));
                    }
                });
            }
        })
        .expect("client gradient thread panicked");
        let mut out = results.into_inner();
        out.sort_by_key(|(idx, _)| *idx);
        out
    }

    /// Runs all configured rounds following a churn schedule; vehicle `v`
    /// in the schedule corresponds to `clients[v]`. Records departures in
    /// the history and invokes `on_round` after every round with the
    /// current round index and parameters (for accuracy curves).
    ///
    /// The final model is recorded at round `T` so the history spans
    /// `0..=T`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule covers a different number of clients.
    pub fn train_with(
        &mut self,
        clients: &mut [Box<dyn Client>],
        schedule: &ChurnSchedule,
        mut on_round: impl FnMut(Round, &[f32]),
    ) {
        assert_eq!(
            schedule.len(),
            clients.len(),
            "train_with: schedule/client count mismatch"
        );
        let total = self.cfg.rounds;
        for _ in self.round..total {
            let t = self.round;
            let active = hierarchy::apply_sampling(
                schedule.active_in(t),
                self.sampling_seed,
                t,
                self.sample_frac,
            );
            self.run_round(clients, &active);
            for (v, client) in clients.iter().enumerate() {
                if schedule.membership(v).leaves_after == Some(t) {
                    let id = client.id();
                    if self.history.join_round(id).is_some() {
                        self.history.record_leave(id, t);
                    }
                }
            }
            on_round(t, &self.params);
        }
        self.history.record_model(total, self.params.clone());
    }

    /// Convenience wrapper over [`Server::train_with`] without a callback.
    ///
    /// # Panics
    ///
    /// Panics if the schedule covers a different number of clients.
    pub fn train(&mut self, clients: &mut [Box<dyn Client>], schedule: &ChurnSchedule) {
        self.train_with(clients, schedule, |_, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HonestClient;
    use fuiov_data::{Dataset, DigitStyle};
    use fuiov_nn::ModelSpec;

    fn spec() -> ModelSpec {
        ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        }
    }

    fn make_clients(n: usize) -> Vec<Box<dyn Client>> {
        let data = Dataset::digits(20 * n, &DigitStyle::small(), 5);
        let parts = fuiov_data::partition::partition_iid(data.len(), n, 5);
        parts
            .into_iter()
            .enumerate()
            .map(|(id, idx)| {
                Box::new(HonestClient::new(id, spec(), data.subset(&idx), 10, 5)) as Box<dyn Client>
            })
            .collect()
    }

    fn server(rounds: usize) -> Server {
        let cfg = FlConfig::new(rounds, 0.5)
            .batch_size(10)
            .parallel_clients(false);
        Server::new(cfg, spec().build(1).params())
    }

    #[test]
    fn training_records_complete_history() {
        let mut clients = make_clients(3);
        let mut s = server(4);
        let schedule = ChurnSchedule::static_membership(3, 4);
        s.train(&mut clients, &schedule);
        let h = s.history();
        assert_eq!(h.rounds(), vec![0, 1, 2, 3, 4]); // T+1 models
        for t in 0..4 {
            assert_eq!(h.clients_in_round(t), vec![0, 1, 2]);
        }
        assert_eq!(h.join_round(1), Some(0));
        assert_eq!(s.summaries().len(), 4);
    }

    #[test]
    fn training_reduces_loss() {
        let mut clients = make_clients(3);
        let mut s = server(15);
        let schedule = ChurnSchedule::static_membership(3, 15);
        let initial = s.params().to_vec();
        s.train(&mut clients, &schedule);
        // Evaluate both models on a held-out set.
        let test = Dataset::digits(60, &DigitStyle::small(), 77);
        let (x, y) = test.full();
        let mut m = spec().build(0);
        m.set_params(&initial);
        let (loss_before, _) = m.loss_and_grad(&x, &y);
        m.set_params(s.params());
        let (loss_after, _) = m.loss_and_grad(&x, &y);
        assert!(
            loss_after < loss_before,
            "federated training should reduce loss: {loss_before} -> {loss_after}"
        );
    }

    #[test]
    fn parallel_and_serial_give_identical_models() {
        let schedule = ChurnSchedule::static_membership(4, 3);

        let mut c1 = make_clients(4);
        let cfg1 = FlConfig::new(3, 0.1).batch_size(10).parallel_clients(false);
        let mut s1 = Server::new(cfg1, spec().build(1).params());
        s1.train(&mut c1, &schedule);

        let mut c2 = make_clients(4);
        let cfg2 = FlConfig::new(3, 0.1).batch_size(10).parallel_clients(true);
        let mut s2 = Server::new(cfg2, spec().build(1).params());
        s2.train(&mut c2, &schedule);

        assert_eq!(s1.params(), s2.params());
    }

    #[test]
    fn churn_affects_participation_record() {
        use crate::mobility::Membership;
        let mut clients = make_clients(3);
        let mut s = server(5);
        let mut schedule = ChurnSchedule::static_membership(3, 5);
        schedule.set_membership(
            1,
            Membership {
                joined: 2,
                leaves_after: Some(3),
                dropouts: vec![],
            },
        );
        s.train(&mut clients, &schedule);
        let h = s.history();
        assert_eq!(h.join_round(1), Some(2));
        assert_eq!(h.participation(1).unwrap().left, Some(3));
        assert_eq!(h.clients_in_round(0), vec![0, 2]);
        assert_eq!(h.clients_in_round(2), vec![0, 1, 2]);
        assert_eq!(h.clients_in_round(4), vec![0, 2]);
    }

    #[test]
    fn uploads_path_matches_client_path_bitwise() {
        // The transport seam: feeding the same gradients through
        // `run_round_uploads` (sorted by client id, the networked
        // discipline) must reproduce `run_round` exactly.
        let mut c1 = make_clients(3);
        let mut s1 = server(2);
        let mut c2 = make_clients(3);
        let mut s2 = server(2);
        for _ in 0..2 {
            s1.run_round(&mut c1, &[0, 1, 2]);
            let params = s2.params().to_vec();
            let round = s2.round();
            let mut uploads: Vec<Upload> = c2
                .iter_mut()
                .map(|c| Upload {
                    client: c.id(),
                    weight: c.weight(),
                    grad: c.gradient(&params, round),
                })
                .collect();
            uploads.sort_by_key(|u| u.client);
            s2.run_round_uploads(uploads);
        }
        assert_eq!(s1.params(), s2.params());
        assert_eq!(s1.summaries().len(), s2.summaries().len());
        for (a, b) in s1.summaries().iter().zip(s2.summaries()) {
            assert_eq!(a.participants, b.participants);
        }
    }

    #[test]
    fn empty_round_keeps_model_unchanged() {
        let mut clients = make_clients(2);
        let mut s = server(1);
        let before = s.params().to_vec();
        let summary = s.run_round(&mut clients, &[]);
        assert_eq!(summary.update_norm, 0.0);
        assert!(summary.participants.is_empty());
        assert_eq!(s.params(), &before[..]);
        assert_eq!(s.round(), 1);
    }

    #[test]
    fn full_gradient_store_populated_when_enabled() {
        let mut clients = make_clients(2);
        let cfg = FlConfig::new(2, 0.1)
            .batch_size(10)
            .keep_full_gradients(true)
            .parallel_clients(false);
        let mut s = Server::new(cfg, spec().build(1).params());
        let schedule = ChurnSchedule::static_membership(2, 2);
        s.train(&mut clients, &schedule);
        assert!(s.full_store().gradient(0, 0).is_some());
        assert!(s.full_store().gradient(1, 1).is_some());
        assert!(s.full_store().bytes() > 0);
    }

    #[test]
    fn on_round_callback_sees_every_round() {
        let mut clients = make_clients(2);
        let mut s = server(3);
        let schedule = ChurnSchedule::static_membership(2, 3);
        let mut seen = Vec::new();
        s.train_with(&mut clients, &schedule, |t, params| {
            assert!(!params.is_empty());
            seen.push(t);
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn tree_and_sampling_builders_default_safely() {
        // Stock server: flat and unsampled, whatever the environment says.
        let s = server(1);
        assert_eq!(s.tree_fanout, None);
        assert_eq!(s.sample_frac, 1.0);
        // Fan-out: anything below 2 means "no tree".
        for (fanout, want) in [
            (None, None),
            (Some(0), None),
            (Some(1), None),
            (Some(2), Some(2)),
            (Some(8), Some(8)),
        ] {
            assert_eq!(server(1).with_tree_fanout(fanout).tree_fanout, want);
        }
        // Sampling: anything outside (0, 1) collapses to the identity 1.0.
        for frac in [1.0, 0.0, -0.5, 2.5, f64::NAN, f64::INFINITY] {
            assert_eq!(server(1).with_sample_frac(frac).sample_frac, 1.0, "{frac}");
        }
        assert_eq!(server(1).with_sample_frac(0.25).sample_frac, 0.25);
    }
}
