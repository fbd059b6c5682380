//! Evaluation metrics and report formatting for the FUIOV experiments.
//!
//! - [`metrics`]: test accuracy and the model-distance criterion of
//!   §III-B.
//! - [`confusion`]: confusion matrices with per-class recall and
//!   precision.
//! - [`heterogeneity`]: the sign-agreement diagnostic the scenario lab
//!   reports for its non-IID rows.
//! - [`table`]: column-aligned / markdown tables; the scenario lab
//!   renders its per-row `tables.md` with them, in the paper's Table I
//!   format.

pub mod confusion;
pub mod heterogeneity;
pub mod metrics;
pub mod table;

pub use confusion::ConfusionMatrix;
pub use heterogeneity::{round_sign_agreement, sign_agreement_curve};
pub use metrics::{model_distance, test_accuracy};
pub use table::Table;
