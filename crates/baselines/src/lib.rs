//! Comparison baselines for the Table I evaluation (§V-A3):
//!
//! - [`mod@retrain`]: retraining from scratch on the remaining clients — the
//!   exact-unlearning gold standard;
//! - [`mod@fedrecover`]: FedRecover (Cao et al., S&P'23) — Cauchy-MVT + L-BFGS
//!   recovery from **full** stored gradients with periodic exact
//!   corrections from online clients;
//! - [`mod@fedrecovery`]: FedRecovery (Zhang et al., TIFS'23) — approximate
//!   unlearning by removing the forgotten client's weighted gradient
//!   residuals from the final model plus Gaussian noise;
//! - [`mod@not`]: NoT (arXiv 2503.05657) — unlearning by negating the first
//!   layer's weights, optionally fine-tuned from the stored sign history
//!   (the scenario lab's `not` baseline variant).

pub mod fedrecover;
pub mod fedrecovery;
pub mod not;
pub mod retrain;

pub use fedrecover::{fedrecover, FedRecoverConfig, FedRecoverOutcome};
pub use fedrecovery::{fedrecovery, FedRecoveryConfig, FedRecoveryOutcome};
pub use not::{negate_first_layer, not_unlearn, NotOutcome};
pub use retrain::retrain;
