//! Federated unlearning for the Internet of Vehicles — the core of the
//! DSN 2024 paper reproduction.
//!
//! The pipeline has three stages, each with its own module:
//!
//! 1. **Forget by backtracking** ([`mod@backtrack`], Eq. 5): roll the global
//!    model back to `w_F`, the state before the forgotten vehicle joined.
//!    Training results from rounds `1..F` are preserved — no
//!    re-initialisation.
//! 2. **Approximate curvature** ([`lbfgs`], Algorithm 2): per remaining
//!    client, a compact L-BFGS Hessian approximation built from vector
//!    pairs seeded with pre-`F` history, so recovery works even after
//!    vehicles leave the federation.
//! 3. **Recover server-side** ([`mod@recover`], Algorithm 1): replay rounds
//!    `F..T` estimating every remaining client's gradient via the Cauchy
//!    mean value theorem (Eq. 6) from the **stored gradient directions
//!    only**, clip element-wise (Eq. 7), and aggregate with FedAvg.
//!
//! [`Unlearner`] is the high-level entry point; `fuiov_fl::Server`
//! produces the [`fuiov_storage::HistoryStore`] it consumes. [`mod@jobs`]
//! wraps the pipeline in a resumable job service: concurrent forget
//! requests on snapshot-isolated history views, incremental FNV-sealed
//! checkpoints, crash-safe resume, and cross-job batched replay.

pub mod backtrack;
pub mod batch;
pub mod error;
pub mod jobs;
pub mod lbfgs;
pub mod recover;
pub mod subtree;
pub mod unlearner;
pub mod verify;

pub use backtrack::{backtrack, backtrack_set, BacktrackResult};
pub use batch::{fused_dots_multi, stream_fedavg, RoundScratch, StackedLbfgs};
pub use error::UnlearnError;
pub use jobs::{ingest_requests, JobConfig, JobId, JobLog, JobService, LoggedCheckpoint};
pub use lbfgs::{LbfgsApprox, LbfgsError, PairBuffer};
pub use recover::{
    calibrate_lr, recover, recover_set, recover_set_scoped, GradientOracle, NoOracle,
    RecoveryConfig, RecoveryOutcome,
};
pub use subtree::{recover_vehicle, recover_vehicle_flat, VehicleRecovery};
pub use unlearner::{ClientPoolOracle, Unlearner};
pub use verify::{forgetting_score, membership_advantage};
