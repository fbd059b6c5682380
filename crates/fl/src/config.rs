//! Federated-training configuration.

use fuiov_storage::Round;

/// Aggregation rule applied to client gradients each round.
///
/// The paper trains and recovers with [`AggregationRule::FedAvg`] (Eq. 1);
/// the robust rules are provided for the defence-comparison ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregationRule {
    /// Dataset-size-weighted mean (Eq. 1).
    FedAvg,
    /// Coordinate-wise median — a classic Byzantine-robust rule.
    CoordinateMedian,
    /// Coordinate-wise trimmed mean dropping the `trim` largest and
    /// smallest values per coordinate.
    TrimmedMean {
        /// Number of extreme values trimmed from each side.
        trim: usize,
    },
    /// RSA-style sign aggregation (Li et al. 2019, Eq. 3): the update is
    /// `λ · Σᵢ sign(gᵢ)`, using only directions.
    SignSgd {
        /// Step scale λ.
        lambda: f32,
    },
}

/// Configuration for a federated training run.
///
/// Construct with [`FlConfig::new`] and customise with the builder
/// methods:
///
/// ```
/// use fuiov_fl::config::{AggregationRule, FlConfig};
/// let cfg = FlConfig::new(100, 1e-4)
///     .batch_size(128)
///     .sign_delta(1e-6)
///     .aggregation(AggregationRule::FedAvg);
/// assert_eq!(cfg.rounds, 100);
/// ```
#[derive(Debug, Clone)]
pub struct FlConfig {
    /// Total number of federated rounds `T`.
    pub rounds: Round,
    /// Server learning rate `η`.
    pub lr: f32,
    /// Client mini-batch size.
    pub batch_size: usize,
    /// Aggregation rule `𝒜`.
    pub aggregation: AggregationRule,
    /// Sign-quantisation threshold `δ` for the history store.
    pub sign_delta: f32,
    /// Whether the server also keeps full `f32` gradients (needed by the
    /// FedRecover baseline; the paper's scheme keeps this off).
    pub keep_full_gradients: bool,
    /// Run client gradient computations on a thread pool.
    pub parallel_clients: bool,
}

impl FlConfig {
    /// A configuration with the paper's defaults for everything but the
    /// two required parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `lr` is not strictly positive.
    pub fn new(rounds: Round, lr: f32) -> Self {
        assert!(rounds > 0, "FlConfig: rounds must be positive");
        assert!(
            lr > 0.0 && lr.is_finite(),
            "FlConfig: invalid learning rate"
        );
        FlConfig {
            rounds,
            lr,
            batch_size: 128,
            aggregation: AggregationRule::FedAvg,
            sign_delta: 1e-6,
            keep_full_gradients: false,
            parallel_clients: true,
        }
    }

    /// Sets the client mini-batch size.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "FlConfig: batch_size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Sets the aggregation rule.
    pub fn aggregation(mut self, rule: AggregationRule) -> Self {
        self.aggregation = rule;
        self
    }

    /// Sets the sign-quantisation threshold δ.
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn sign_delta(mut self, delta: f32) -> Self {
        assert!(delta >= 0.0, "FlConfig: delta must be >= 0");
        self.sign_delta = delta;
        self
    }

    /// Also store full gradients (for FedRecover-style baselines).
    pub fn keep_full_gradients(mut self, keep: bool) -> Self {
        self.keep_full_gradients = keep;
        self
    }

    /// Enables or disables the client thread pool.
    pub fn parallel_clients(mut self, parallel: bool) -> Self {
        self.parallel_clients = parallel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = FlConfig::new(100, 1e-4);
        assert_eq!(cfg.batch_size, 128);
        assert_eq!(cfg.aggregation, AggregationRule::FedAvg);
        assert!((cfg.sign_delta - 1e-6).abs() < 1e-12);
        assert!(!cfg.keep_full_gradients);
    }

    #[test]
    fn builder_chains() {
        let cfg = FlConfig::new(10, 0.1)
            .batch_size(32)
            .aggregation(AggregationRule::TrimmedMean { trim: 1 })
            .sign_delta(0.0)
            .keep_full_gradients(true)
            .parallel_clients(false);
        assert_eq!(cfg.batch_size, 32);
        assert_eq!(cfg.aggregation, AggregationRule::TrimmedMean { trim: 1 });
        assert!(cfg.keep_full_gradients);
        assert!(!cfg.parallel_clients);
    }

    #[test]
    #[should_panic(expected = "rounds must be positive")]
    fn rejects_zero_rounds() {
        let _ = FlConfig::new(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "invalid learning rate")]
    fn rejects_bad_lr() {
        let _ = FlConfig::new(1, -0.1);
    }
}
