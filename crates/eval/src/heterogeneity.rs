//! Client-heterogeneity diagnostics over the stored sign history.
//!
//! The recovery signal in the paper's scheme is the FedAvg of per-client
//! gradient *directions*; when clients disagree on many coordinates
//! (non-IID data), that average carries less information. These metrics
//! quantify the effect directly from a [`HistoryStore`] — no extra
//! training needed — and explain the non-IID results (the scenario lab's
//! `noniid-*` rows report the mean as `sign_agreement`).

use fuiov_storage::{HistoryStore, Round};

/// Mean pairwise sign-agreement between clients in one round: the
/// fraction of coordinates on which two clients report the same direction,
/// averaged over all client pairs. `None` if fewer than two clients
/// participated.
pub fn round_sign_agreement(history: &HistoryStore, round: Round) -> Option<f32> {
    let clients = history.clients_in_round(round);
    if clients.len() < 2 {
        return None;
    }
    let signs: Vec<Vec<i8>> = clients
        .iter()
        .filter_map(|&c| history.direction(round, c).map(|d| d.to_signs()))
        .collect();
    if signs.len() < 2 {
        return None;
    }
    let dim = signs[0].len();
    let mut total = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..signs.len() {
        for j in (i + 1)..signs.len() {
            let agree = fuiov_tensor::vector::sign_agreement(&signs[i], &signs[j]);
            total += agree as f64 / dim as f64;
            pairs += 1;
        }
    }
    Some((total / pairs as f64) as f32)
}

/// Per-round sign agreement across the whole history, skipping rounds
/// with fewer than two participants.
pub fn sign_agreement_curve(history: &HistoryStore) -> Vec<(Round, f32)> {
    history
        .rounds()
        .into_iter()
        .filter_map(|r| round_sign_agreement(history, r).map(|a| (r, a)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuiov_storage::HistoryStore;

    fn store(signs: &[&[f32]]) -> HistoryStore {
        let mut h = HistoryStore::new(0.0);
        h.record_model(0, vec![0.0; signs[0].len()]);
        for (c, g) in signs.iter().enumerate() {
            h.record_join(c, 0);
            h.record_gradient(0, c, g);
        }
        h
    }

    #[test]
    fn identical_clients_agree_fully() {
        let h = store(&[&[1.0, -1.0, 1.0], &[2.0, -0.5, 3.0]]);
        assert_eq!(round_sign_agreement(&h, 0), Some(1.0));
    }

    #[test]
    fn opposite_clients_agree_never() {
        let h = store(&[&[1.0, -1.0], &[-1.0, 1.0]]);
        assert_eq!(round_sign_agreement(&h, 0), Some(0.0));
    }

    #[test]
    fn partial_agreement() {
        let h = store(&[&[1.0, 1.0, 1.0, -1.0], &[1.0, 1.0, -1.0, 1.0]]);
        assert_eq!(round_sign_agreement(&h, 0), Some(0.5));
    }

    #[test]
    fn single_client_round_is_none_for_agreement() {
        let h = store(&[&[1.0]]);
        assert_eq!(round_sign_agreement(&h, 0), None);
    }

    #[test]
    fn curve_covers_rounds_with_pairs() {
        let mut h = store(&[&[1.0, -1.0], &[1.0, 1.0]]);
        h.record_model(1, vec![0.0, 0.0]);
        h.record_gradient(1, 0, &[1.0, 1.0]);
        // Round 1 has a single client → skipped.
        let curve = sign_agreement_curve(&h);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve[0].0, 0);
    }
}
