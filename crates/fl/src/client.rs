//! Federated clients (vehicles).

use fuiov_data::Dataset;
use fuiov_nn::{ModelSpec, Sequential};
use fuiov_storage::{ClientId, Round};
use fuiov_tensor::rng::{rng_for, streams};
use fuiov_tensor::vector;

/// A federated client: given the current global parameters it computes a
/// local gradient to report to the server.
///
/// Implementations must be `Send` so the server can fan gradient
/// computation out across threads. Malicious clients (label-flip,
/// backdoor, scaling) live in `fuiov-attacks` and wrap an honest client.
pub trait Client: Send {
    /// Stable client identifier.
    fn id(&self) -> ClientId;

    /// FedAvg weight `‖Dᵢ‖` — the local dataset size.
    fn weight(&self) -> f32;

    /// Whether the client answers the server's poll for `round`.
    ///
    /// The churn schedule decides who is *in range*; this hook decides who
    /// actually *uploads*. The server skips non-responding clients before
    /// computing gradients, so they appear in no round record — exactly a
    /// vehicle dropping out mid-round after being polled. Defaults to
    /// always responding; fault-injection wrappers (`fuiov-testkit`)
    /// override it.
    fn responds_in(&self, round: Round) -> bool {
        let _ = round;
        true
    }

    /// Computes the local gradient of the loss at `params` for `round`.
    ///
    /// The returned vector has the model's parameter dimension.
    fn gradient(&mut self, params: &[f32], round: Round) -> Vec<f32>;
}

/// An honest client with a local dataset.
///
/// Each round it evaluates the global model's gradient on a deterministic,
/// per-(client, round) shuffled set of mini-batches and reports the mean —
/// the SGD gradient `gᵗᵢ` of §III-A.
pub struct HonestClient {
    id: ClientId,
    model: Sequential,
    data: Dataset,
    batch_size: usize,
    seed: u64,
}

impl std::fmt::Debug for HonestClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HonestClient")
            .field("id", &self.id)
            .field("samples", &self.data.len())
            .field("batch_size", &self.batch_size)
            .finish()
    }
}

impl HonestClient {
    /// Creates a client owning `data`, building its model from `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `batch_size == 0`.
    pub fn new(id: ClientId, spec: ModelSpec, data: Dataset, batch_size: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "HonestClient: empty dataset");
        assert!(batch_size > 0, "HonestClient: batch_size must be positive");
        HonestClient {
            id,
            model: spec.build(seed),
            data,
            batch_size,
            seed,
        }
    }

    /// Read-only view of the local dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Mutable view of the local dataset (used by attack wrappers to
    /// poison samples in place).
    pub fn data_mut(&mut self) -> &mut Dataset {
        &mut self.data
    }
}

impl Client for HonestClient {
    fn id(&self) -> ClientId {
        self.id
    }

    fn weight(&self) -> f32 {
        self.data.len() as f32
    }

    fn gradient(&mut self, params: &[f32], round: Round) -> Vec<f32> {
        self.model.set_params(params);
        let mut rng = rng_for(
            self.seed,
            streams::CLIENT + self.id as u64 * 131 + round as u64,
        );
        let batches = self.data.batches(self.batch_size, &mut rng);
        let dim = self.model.param_count();
        let mut acc = vec![0.0f32; dim];
        let used = batches.len().max(1);
        for batch in &batches {
            let (x, y) = self.data.gather(batch);
            let (_, grad) = self.model.loss_and_grad(&x, &y);
            vector::axpy(1.0, &grad, &mut acc);
        }
        vector::scale(1.0 / used as f32, &mut acc);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuiov_data::DigitStyle;

    /// A client with 20 samples in mini-batches of `batch_size`.
    fn client_with_batch(id: ClientId, batch_size: usize) -> HonestClient {
        let data = Dataset::digits(20, &DigitStyle::small(), 3);
        let spec = ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        };
        HonestClient::new(id, spec, data, batch_size, 7)
    }

    fn client(id: ClientId) -> HonestClient {
        client_with_batch(id, 10)
    }

    #[test]
    fn gradient_has_model_dimension() {
        let mut c = client(0);
        let dim = c.model.param_count();
        let params = vec![0.0; dim];
        let g = c.gradient(&params, 0);
        assert_eq!(g.len(), dim);
        assert!(vector::l2_norm(&g) > 0.0, "gradient should be non-zero");
    }

    #[test]
    fn gradient_is_deterministic_per_round() {
        let mut a = client(1);
        let mut b = client(1);
        let params = vec![0.01; a.model.param_count()];
        assert_eq!(a.gradient(&params, 5), b.gradient(&params, 5));
    }

    #[test]
    fn gradient_varies_across_rounds() {
        let mut c = client(2);
        let params = vec![0.01; c.model.param_count()];
        // Two equal batches: the mean of the batch means is the mean over
        // the same 20 samples whichever way a round shuffles them.
        let g0 = c.gradient(&params, 0);
        let g1 = c.gradient(&params, 1);
        assert!(vector::l2_distance(&g0, &g1) < 1e-5);
        // Batches of 7, 7 and 6: the mean of the batch means depends on
        // which samples share a batch, so each round's own shuffle shows.
        let mut c2 = client_with_batch(2, 7);
        let h0 = c2.gradient(&params, 0);
        let h1 = c2.gradient(&params, 1);
        assert_ne!(h0, h1);
    }

    #[test]
    fn weight_is_dataset_size() {
        let c = client(3);
        assert_eq!(c.weight(), 20.0);
    }

    #[test]
    fn descending_own_gradient_reduces_loss() {
        let mut c = client(4);
        let mut params = c.model.params();
        let (x, y) = c.data.full();
        let mut probe = c.model.clone();
        probe.set_params(&params);
        let (loss_before, _) = probe.loss_and_grad(&x, &y);
        for round in 0..30 {
            let g = c.gradient(&params, round);
            vector::axpy(-0.5, &g, &mut params);
        }
        probe.set_params(&params);
        let (loss_after, _) = probe.loss_and_grad(&x, &y);
        assert!(
            loss_after < loss_before,
            "loss should drop: {loss_before} -> {loss_after}"
        );
    }
}
