//! Forgetting by backtracking (the paper's §IV-A, Eq. 5).
//!
//! To erase a client that joined at round `F`, the server rolls the global
//! model back to `w_F` — the state *before* the client's first update was
//! aggregated. Everything learned in rounds `1..F` is preserved; nothing
//! the forgotten client ever contributed remains, because none of its
//! updates had been applied yet at `w_F`.

use crate::error::UnlearnError;
use fuiov_storage::{ClientId, HistoryStore, Round};

/// The result of backtracking: the unlearned model and where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct BacktrackResult {
    /// The forgotten clients.
    pub clients: Vec<ClientId>,
    /// The earliest join round `F` among the forgotten clients — the
    /// round backtracked to.
    pub join_round: Round,
    /// The unlearned model `w̄ = w_F` (Eq. 5).
    pub params: Vec<f32>,
    /// The latest round `T` the history covers (recovery replays `F..T`).
    pub latest_round: Round,
}

/// Backtracks the global model to erase a set of clients (Eq. 5):
/// `w̄ ← w_F` — one vehicle, or e.g. every detected attacker in the Fig. 1
/// poisoning-recovery scenario. The model rolls back to the *earliest*
/// join round `F` among them, so none of their updates survive.
///
/// # Errors
///
/// - [`UnlearnError::EmptyHistory`] if no models were recorded or the set
///   is empty;
/// - [`UnlearnError::UnknownClient`] if any client never joined;
/// - [`UnlearnError::MissingModel`] if `w_F` was not recorded.
pub fn backtrack_set(
    history: &HistoryStore,
    clients: &[ClientId],
) -> Result<BacktrackResult, UnlearnError> {
    let latest_round = history.latest_round().ok_or(UnlearnError::EmptyHistory)?;
    if clients.is_empty() {
        return Err(UnlearnError::EmptyHistory);
    }
    let mut join_round = Round::MAX;
    for &c in clients {
        let f = history
            .join_round(c)
            .ok_or(UnlearnError::UnknownClient(c))?;
        join_round = join_round.min(f);
    }
    let params = history
        .model(join_round)
        .ok_or(UnlearnError::MissingModel(join_round))?
        .to_vec();
    Ok(BacktrackResult {
        clients: clients.to_vec(),
        join_round,
        params,
        latest_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> HistoryStore {
        let mut h = HistoryStore::new(1e-6);
        for t in 0..=4 {
            h.record_model(t, vec![t as f32; 3]);
        }
        h.record_join(1, 0);
        h.record_join(2, 2);
        h
    }

    #[test]
    fn backtracks_to_join_round_model() {
        let h = history();
        let r = backtrack_set(&h, &[2]).unwrap();
        assert_eq!(r.join_round, 2);
        assert_eq!(r.params, vec![2.0, 2.0, 2.0]);
        assert_eq!(r.latest_round, 4);
    }

    #[test]
    fn client_from_round_zero_backtracks_to_initial_model() {
        let h = history();
        let r = backtrack_set(&h, &[1]).unwrap();
        assert_eq!(r.join_round, 0);
        assert_eq!(r.params, vec![0.0; 3]);
    }

    #[test]
    fn set_backtracks_to_earliest_join() {
        let h = history();
        let r = backtrack_set(&h, &[2, 1]).unwrap();
        assert_eq!(r.join_round, 0);
        assert_eq!(r.clients, vec![2, 1]);
        assert_eq!(r.params, vec![0.0; 3]);
    }

    #[test]
    fn empty_set_errors() {
        let h = history();
        assert_eq!(
            backtrack_set(&h, &[]).unwrap_err(),
            UnlearnError::EmptyHistory
        );
    }

    #[test]
    fn set_with_unknown_member_errors() {
        let h = history();
        assert_eq!(
            backtrack_set(&h, &[1, 50]).unwrap_err(),
            UnlearnError::UnknownClient(50)
        );
    }

    #[test]
    fn unknown_client_errors() {
        let h = history();
        assert_eq!(
            backtrack_set(&h, &[99]).unwrap_err(),
            UnlearnError::UnknownClient(99)
        );
    }

    #[test]
    fn empty_history_errors() {
        let h = HistoryStore::new(0.0);
        assert_eq!(
            backtrack_set(&h, &[0]).unwrap_err(),
            UnlearnError::EmptyHistory
        );
    }

    #[test]
    fn missing_model_errors() {
        let mut h = HistoryStore::new(0.0);
        h.record_model(5, vec![1.0]);
        h.record_join(3, 2); // joined at round 2, but w_2 was never stored
        assert_eq!(
            backtrack_set(&h, &[3]).unwrap_err(),
            UnlearnError::MissingModel(2)
        );
    }
}
