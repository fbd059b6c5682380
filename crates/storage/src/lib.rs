//! Server-side storage for federated unlearning.
//!
//! The paper's key storage idea (§IV): instead of keeping every client's
//! full `f32` gradient for every round — as FedRecover/FedEraser require —
//! the server keeps only each gradient's *direction*, quantised with a
//! dead-zone threshold `δ` and packed 2 bits per element. That's a 16×
//! (~94 %) reduction in gradient storage, which is what makes historical
//! recovery feasible at IoV scale.
//!
//! - [`direction`]: the packed sign representation
//!   ([`GradientDirection`]).
//! - [`history`]: the per-round record a server keeps
//!   ([`HistoryStore`]), now *tiered*: hot rounds in memory, cold rounds
//!   delta-coded and spilled to an append-only segment file under a byte
//!   budget its caller passes ([`TierConfig`]), plus the full-precision
//!   [`history::FullGradientStore`] used by the baselines and the storage
//!   comparison experiment.
//! - [`delta`]: lossless varint-zigzag delta coding of `f32` checkpoints.
//! - [`segment`]: FUSG, the one sealed record format every persisted or
//!   sent byte uses — spill segments, job logs, the wire, history files
//!   ([`segment::encode_history`]) and model checkpoints
//!   ([`segment::encode_keyframe`]).
//!
//! # Example
//!
//! ```
//! use fuiov_storage::{HistoryStore, direction::GradientDirection};
//!
//! let mut h = HistoryStore::new(1e-6);
//! h.record_model(0, vec![0.0; 8]);
//! h.record_join(3, 0);
//! h.record_gradient(0, 3, &[0.5, -0.5, 0.0, 0.1, -0.1, 0.0, 0.2, -0.2]);
//! assert!(h.gradient_savings_ratio() > 0.9);
//! ```

pub mod delta;
pub mod direction;
pub mod history;
pub mod segment;

pub use direction::GradientDirection;
pub use history::{
    ClientId, ClientsIter, DirectionRef, HistoryStore, ModelRef, Participation, Round, RoundView,
    Tier, TierConfig, TierStats,
};
pub use segment::SegmentDecodeError;
