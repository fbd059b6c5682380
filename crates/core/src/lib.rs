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
//! Forgetting a set of vehicles has one way in per shape of request, all
//! over the [`fuiov_storage::HistoryStore`] that `fuiov_fl::Server`
//! records: [`backtrack_set`] alone (the unlearned model `w_F`),
//! [`recover_set`] (backtrack, then replay), and [`JobService::submit`],
//! which runs the same replay as a resumable job — concurrent forget
//! requests on snapshot-isolated history views, incremental FNV-sealed
//! checkpoints, crash-safe resume, and cross-job batched replay
//! ([`mod@jobs`]).
//!
//! ```no_run
//! use fuiov_core::{backtrack_set, recover_set, NoOracle, RecoveryConfig};
//! # fn demo(history: fuiov_storage::HistoryStore) -> Result<(), fuiov_core::UnlearnError> {
//! let unlearned = backtrack_set(&history, &[42])?; // w_F, Eq. 5
//! let cfg = RecoveryConfig::new(1e-4);
//! let outcome = recover_set(&history, &[42], &cfg, &mut NoOracle, |_, _| {})?;
//! assert_eq!(outcome.start_round, unlearned.join_round);
//! # Ok(())
//! # }
//! ```

pub mod backtrack;
pub mod batch;
pub mod error;
pub mod jobs;
pub mod lbfgs;
pub mod recover;
pub mod verify;

pub use backtrack::{backtrack_set, BacktrackResult};
pub use batch::{fused_dots_multi, stream_fedavg, RoundScratch, StackedLbfgs};
pub use error::UnlearnError;
pub use jobs::{JobConfig, JobId, JobLog, JobService, LoggedCheckpoint};
pub use lbfgs::{LbfgsApprox, LbfgsError, PairBuffer};
pub use recover::{
    calibrate_lr, recover_set, ClientPoolOracle, GradientOracle, NoOracle, RecoveryConfig,
    RecoveryOutcome,
};
pub use verify::{forgetting_score, membership_advantage};
