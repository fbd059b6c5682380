//! Evaluation metrics and report formatting for the FUIOV experiments.
//!
//! - [`metrics`]: test accuracy, loss, per-class accuracy, and the
//!   model-distance criterion of §III-B.
//! - [`table`]: column-aligned / markdown tables the experiment binaries
//!   print, matching the paper's Table I format.

pub mod confusion;
pub mod heterogeneity;
pub mod metrics;
pub mod table;

pub use confusion::ConfusionMatrix;
pub use heterogeneity::{majority_coherence, round_sign_agreement, sign_agreement_curve};
pub use metrics::{model_distance, per_class_accuracy, test_accuracy, test_loss};
pub use table::Table;
