//! FedRecovery baseline (Zhang et al., IEEE TIFS 2023), as described in
//! §II and §V-A3.
//!
//! FedRecovery is an *approximate* unlearning method: instead of
//! re-running any training, it removes a weighted sum of the forgotten
//! client's gradient residuals directly from the final global model, then
//! adds calibrated Gaussian noise so the unlearned model is statistically
//! indistinguishable from a retrained one.
//!
//! Concretely, during training the forgotten client `i` pulled the global
//! model by `−η · (‖Dᵢ‖/Σ‖D‖ₜ) · gᵗᵢ` in each round `t` it participated.
//! The unlearned model adds those contributions back:
//!
//! ```text
//! w̄ = w_T + η · Σₜ (‖Dᵢ‖ / Σⱼ∈round t ‖Dⱼ‖) · gᵗᵢ  +  𝒩(0, σ²I)
//! ```
//!
//! This needs the client's **full gradients**, so it shares FedRecover's
//! storage cost — one of the paper's criticisms.

use fuiov_core::backtrack::backtrack_set;
use fuiov_core::UnlearnError;
use fuiov_storage::history::FullGradientStore;
use fuiov_storage::{ClientId, HistoryStore};
use fuiov_tensor::rng::{rng_for, streams};
use fuiov_tensor::vector;
use rand::Rng;

/// FedRecovery's knobs.
#[derive(Debug, Clone, Copy)]
pub struct FedRecoveryConfig {
    /// The learning rate `η` used during original training.
    pub lr: f32,
    /// Std-dev of the Gaussian noise added for indistinguishability.
    pub noise_sigma: f32,
}

impl FedRecoveryConfig {
    /// Defaults with the given training learning rate and a small noise
    /// level.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive or `noise_sigma` negative.
    pub fn new(lr: f32) -> Self {
        assert!(
            lr > 0.0 && lr.is_finite(),
            "FedRecoveryConfig: invalid learning rate"
        );
        FedRecoveryConfig {
            lr,
            noise_sigma: 1e-3,
        }
    }

    /// Sets the noise standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if negative or NaN.
    pub fn noise_sigma(mut self, sigma: f32) -> Self {
        assert!(sigma >= 0.0, "FedRecoveryConfig: noise sigma must be >= 0");
        self.noise_sigma = sigma;
        self
    }
}

/// Outcome of a FedRecovery run.
#[derive(Debug, Clone)]
pub struct FedRecoveryOutcome {
    /// The unlearned (residual-removed, noised) parameters.
    pub params: Vec<f32>,
    /// Rounds in which the forgotten client's residual was removed.
    pub residuals_removed: usize,
}

/// Removes the forgotten client's gradient residuals from the final model
/// and adds Gaussian noise.
///
/// # Errors
///
/// - [`UnlearnError::EmptyHistory`] / [`UnlearnError::UnknownClient`] from
///   the participation lookup;
/// - [`UnlearnError::MissingModel`] if the final model is missing.
pub fn fedrecovery(
    history: &HistoryStore,
    full: &FullGradientStore,
    forgotten: ClientId,
    config: &FedRecoveryConfig,
    seed: u64,
) -> Result<FedRecoveryOutcome, UnlearnError> {
    // Reuse backtrack's validation to locate F and T.
    let bt = backtrack_set(history, &[forgotten])?;
    let t_end = bt.latest_round;
    let mut params = history
        .model(t_end)
        .ok_or(UnlearnError::MissingModel(t_end))?
        .to_vec();

    let mut residuals_removed = 0usize;
    for t in bt.join_round..t_end {
        let Some(g) = full.gradient(t, forgotten) else {
            continue;
        };
        // Total FedAvg weight of that round's participants.
        let total: f32 = history
            .clients_in_round(t)
            .iter()
            .map(|&c| history.weight(c))
            .sum();
        if total <= 0.0 {
            continue;
        }
        let share = history.weight(forgotten) / total;
        // Add the contribution back: w += η · share · gᵗᵢ.
        vector::axpy(config.lr * share, g, &mut params);
        residuals_removed += 1;
    }

    if config.noise_sigma > 0.0 {
        let mut rng = rng_for(seed, streams::BASELINE);
        for p in &mut params {
            let u1: f32 = rng.gen_range(1e-7..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            *p += config.noise_sigma * z;
        }
    }

    Ok(FedRecoveryOutcome {
        params,
        residuals_removed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> (HistoryStore, FullGradientStore, Vec<f32>) {
        let dim = 4;
        let lr = 0.1f32;
        let mut h = HistoryStore::new(1e-6);
        let mut fs = FullGradientStore::new();
        let mut w = vec![0.0f32; dim];
        for c in 0..3usize {
            h.record_join(c, 0);
            h.set_weight(c, 1.0);
        }
        for t in 0..5 {
            h.record_model(t, w.clone());
            let mut grads = Vec::new();
            for c in 0..3usize {
                let g: Vec<f32> = (0..dim).map(|j| (c + j) as f32 * 0.1).collect();
                h.record_gradient(t, c, &g);
                fs.record(t, c, g.clone());
                grads.push(g);
            }
            let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
            let agg = vector::weighted_mean(&refs, &[1.0; 3]);
            vector::axpy(-lr, &agg, &mut w);
        }
        h.record_model(5, w.clone());
        (h, fs, w)
    }

    #[test]
    fn residual_removal_without_noise_is_exact_arithmetic() {
        let (h, fs, w_final) = synthetic();
        let cfg = FedRecoveryConfig::new(0.1).noise_sigma(0.0);
        let out = fedrecovery(&h, &fs, 2, &cfg, 0).unwrap();
        assert_eq!(out.residuals_removed, 5);
        // Expected: w_final + lr/3 · Σ_t g_t^2 (client 2's constant grad).
        let g2: Vec<f32> = (0..4).map(|j| (2 + j) as f32 * 0.1).collect();
        let mut expected = w_final;
        vector::axpy(0.1 / 3.0 * 5.0, &g2, &mut expected);
        assert!(vector::l2_distance(&out.params, &expected) < 1e-5);
    }

    #[test]
    fn noise_perturbs_but_is_deterministic_per_seed() {
        let (h, fs, _) = synthetic();
        let cfg = FedRecoveryConfig::new(0.1).noise_sigma(0.01);
        let a = fedrecovery(&h, &fs, 1, &cfg, 7).unwrap();
        let b = fedrecovery(&h, &fs, 1, &cfg, 7).unwrap();
        let c = fedrecovery(&h, &fs, 1, &cfg, 8).unwrap();
        assert_eq!(a.params, b.params);
        assert_ne!(a.params, c.params);
    }

    #[test]
    fn unknown_client_errors() {
        let (h, fs, _) = synthetic();
        let cfg = FedRecoveryConfig::new(0.1);
        assert!(matches!(
            fedrecovery(&h, &fs, 9, &cfg, 0),
            Err(UnlearnError::UnknownClient(9))
        ));
    }

    #[test]
    fn missing_gradients_are_skipped() {
        let (h, _, _) = synthetic();
        let empty = FullGradientStore::new();
        let cfg = FedRecoveryConfig::new(0.1).noise_sigma(0.0);
        let out = fedrecovery(&h, &empty, 0, &cfg, 0).unwrap();
        assert_eq!(out.residuals_removed, 0);
        assert_eq!(&out.params[..], &*h.model(5).unwrap());
    }
}
