//! Error type for the unlearning pipeline.

use fuiov_storage::{ClientId, Round, SegmentDecodeError};
use std::error::Error;
use std::fmt;

/// Why an unlearning/recovery request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnlearnError {
    /// The client to forget never participated in training.
    UnknownClient(ClientId),
    /// The history is missing the global model for a needed round.
    MissingModel(Round),
    /// The history contains no rounds after the forget point — nothing to
    /// recover.
    NothingToRecover {
        /// The client's join round `F`.
        join_round: Round,
        /// Latest recorded round `T`.
        latest_round: Round,
    },
    /// No remaining (non-forgotten) client submitted a gradient anywhere
    /// in the replay window `F..T` — every other vehicle had already left
    /// the federation, so there is no information to recover from and
    /// replay would silently return the backtracked model as if it had
    /// been recovered.
    EmptyMembershipWindow {
        /// The backtrack point `F`.
        start_round: Round,
        /// The final round `T`.
        end_round: Round,
    },
    /// The history store is empty.
    EmptyHistory,
    /// A spilled history record the forget needs no longer decodes (a
    /// torn, rotted or stale record), so the replay cannot tell what the
    /// round held.
    Storage(SegmentDecodeError),
    /// A job checkpoint payload failed to parse (framing was FNV-clean but
    /// the state inside is not a valid replay snapshot — e.g. produced by
    /// an incompatible version).
    BadJobCheckpoint(&'static str),
    /// The L-BFGS stack rebuilt from a job checkpoint does not match the
    /// fingerprint sealed at checkpoint time, so a resumed replay could
    /// silently diverge from the uninterrupted run. The job restarts from
    /// an earlier checkpoint (or from scratch) instead.
    StackFingerprintMismatch {
        /// Fingerprint sealed in the checkpoint.
        expected: u64,
        /// Fingerprint of the stack rebuilt on resume.
        found: u64,
    },
}

impl fmt::Display for UnlearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnlearnError::UnknownClient(c) => {
                write!(f, "client {c} never participated in training")
            }
            UnlearnError::MissingModel(r) => {
                write!(f, "history is missing the global model for round {r}")
            }
            UnlearnError::NothingToRecover { join_round, latest_round } => write!(
                f,
                "no rounds to recover: client joined at round {join_round}, history ends at round {latest_round}"
            ),
            UnlearnError::EmptyMembershipWindow { start_round, end_round } => write!(
                f,
                "no remaining client participated in rounds {start_round}..{end_round}: nothing to replay"
            ),
            UnlearnError::EmptyHistory => write!(f, "history store is empty"),
            UnlearnError::Storage(e) => write!(f, "history record does not decode: {e}"),
            UnlearnError::BadJobCheckpoint(what) => {
                write!(f, "job checkpoint payload is not a valid replay snapshot: {what}")
            }
            UnlearnError::StackFingerprintMismatch { expected, found } => write!(
                f,
                "L-BFGS stack rebuilt on resume has fingerprint {found:#018x}, checkpoint sealed {expected:#018x}"
            ),
        }
    }
}

impl Error for UnlearnError {}

impl From<SegmentDecodeError> for UnlearnError {
    fn from(e: SegmentDecodeError) -> Self {
        UnlearnError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(UnlearnError::UnknownClient(3)
            .to_string()
            .contains("client 3"));
        assert!(UnlearnError::MissingModel(7)
            .to_string()
            .contains("round 7"));
        assert!(UnlearnError::EmptyHistory.to_string().contains("empty"));
        assert!(UnlearnError::from(SegmentDecodeError::Truncated)
            .to_string()
            .contains("does not decode"));
        let e = UnlearnError::NothingToRecover {
            join_round: 9,
            latest_round: 9,
        };
        assert!(e.to_string().contains("joined at round 9"));
        let e = UnlearnError::EmptyMembershipWindow {
            start_round: 3,
            end_round: 8,
        };
        assert!(e.to_string().contains("rounds 3..8"));
        let e = UnlearnError::BadJobCheckpoint("short params");
        assert!(e.to_string().contains("short params"));
        let e = UnlearnError::StackFingerprintMismatch {
            expected: 0xabcd,
            found: 0x1234,
        };
        let s = e.to_string();
        assert!(s.contains("0x000000000000abcd") && s.contains("0x0000000000001234"));
    }
}
