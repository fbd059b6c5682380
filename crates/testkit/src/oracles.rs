//! Differential and metamorphic oracles.
//!
//! Small, reusable checks the harness's integration tests compose:
//!
//! - **bitwise identity** — two parameter vectors agree bit for bit
//!   (serial vs parallel, before vs after a save/load round-trip,
//!   re-running an idempotent pipeline);
//! - **thread invariance** — a computation repeated under different
//!   `FUIOV_THREADS` overrides yields identical bits;
//! - **divergence bound** — the recovered model stays within a relative
//!   L2 distance of the retrained-from-scratch reference (the paper's
//!   gold standard);
//! - **round-trip identity** — checkpoint and history encodings decode to
//!   exactly what was encoded.

use fuiov_storage::segment::{decode_history, decode_keyframe, encode_history, encode_keyframe};
use fuiov_storage::HistoryStore;
use fuiov_tensor::{pool, vector};

/// Whether `a` and `b` are identical *bit patterns* (stricter than `==`:
/// `0.0 != -0.0`, and NaNs compare by payload).
pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    first_bit_mismatch(a, b).is_none()
}

/// Index of the first element whose bit pattern differs, or the shorter
/// length on a length mismatch.
pub fn first_bit_mismatch(a: &[f32], b: &[f32]) -> Option<usize> {
    let n = a.len().min(b.len());
    for i in 0..n {
        if a[i].to_bits() != b[i].to_bits() {
            return Some(i);
        }
    }
    (a.len() != b.len()).then_some(n)
}

/// Relative L2 divergence `‖a − b‖ / max(‖b‖, ε)` — `b` is the reference
/// (e.g. the retrained model).
pub fn rel_l2_divergence(a: &[f32], b: &[f32]) -> f32 {
    vector::l2_distance(a, b) / vector::l2_norm(b).max(1e-12)
}

/// Runs `f` once per thread width, asserting every result is bitwise
/// identical to the first, and restores the hardware-default width before
/// returning the baseline result.
///
/// Call only while holding [`crate::thread_lock`] — the width override is
/// process-global.
///
/// # Errors
///
/// Returns a description of the first mismatch (widths and element index).
pub fn check_thread_invariant(
    widths: &[usize],
    mut f: impl FnMut() -> Vec<f32>,
) -> Result<Vec<f32>, String> {
    assert!(!widths.is_empty(), "check_thread_invariant: no widths");
    let mut baseline: Option<(usize, Vec<f32>)> = None;
    let mut failure = None;
    for &w in widths {
        pool::set_threads(w);
        let got = f();
        match &baseline {
            None => baseline = Some((w, got)),
            Some((w0, expect)) => {
                if let Some(i) = first_bit_mismatch(expect, &got) {
                    failure = Some(format!(
                        "thread-invariance violated: widths {w0} vs {w} first differ at \
                         element {i} ({:?} vs {:?})",
                        expect.get(i),
                        got.get(i)
                    ));
                    break;
                }
            }
        }
    }
    pool::set_threads(0);
    if let Some(msg) = failure {
        return Err(msg);
    }
    Ok(baseline.expect("at least one width ran").1)
}

/// Checks that a checkpoint encode→decode round-trip reproduces `params`
/// bit for bit.
///
/// # Errors
///
/// Returns the decode error or the first differing element index.
pub fn checkpoint_roundtrip_identity(params: &[f32]) -> Result<(), String> {
    let (_, decoded) = decode_keyframe(&encode_keyframe(0, params))
        .map_err(|e| format!("round-trip decode failed: {e}"))?;
    match first_bit_mismatch(params, &decoded) {
        None => Ok(()),
        Some(i) => Err(format!(
            "checkpoint round-trip altered element {i}: {:?} -> {:?}",
            params.get(i),
            decoded.get(i)
        )),
    }
}

/// Checks that a history encode→decode round-trip preserves every model,
/// every direction of every round that has directions in either store
/// (thinned-away model rounds included), every participation record and
/// every weight.
///
/// # Errors
///
/// Returns a description of the first discrepancy.
pub fn history_roundtrip_identity(h: &HistoryStore) -> Result<(), String> {
    let blob = encode_history(h).map_err(|e| format!("encode failed: {e}"))?;
    let back = decode_history(&blob).map_err(|e| format!("round-trip decode failed: {e}"))?;
    if back.rounds() != h.rounds() {
        return Err(format!(
            "rounds changed: {:?} -> {:?}",
            h.rounds(),
            back.rounds()
        ));
    }
    for r in h.rounds() {
        let (a, b) = (h.model(r), back.model(r));
        let (a, b) = (a.as_deref().unwrap_or(&[]), b.as_deref().unwrap_or(&[]));
        if let Some(i) = first_bit_mismatch(a, b) {
            return Err(format!("model at round {r} altered at element {i}"));
        }
    }
    let mut dir_rounds = h.direction_rounds();
    dir_rounds.extend(back.direction_rounds());
    dir_rounds.sort_unstable();
    dir_rounds.dedup();
    for r in dir_rounds {
        if back.clients_in_round(r) != h.clients_in_round(r) {
            return Err(format!("participants of round {r} changed"));
        }
        for c in h.clients_in_round(r) {
            if back.direction(r, c).map(|d| d.to_signs()) != h.direction(r, c).map(|d| d.to_signs())
            {
                return Err(format!("direction ({r}, {c}) changed"));
            }
        }
    }
    if back.clients() != h.clients() {
        return Err("client set changed".into());
    }
    for c in h.clients() {
        if back.participation(c) != h.participation(c) {
            return Err(format!("participation of client {c} changed"));
        }
        if back.weight(c).to_bits() != h.weight(c).to_bits() {
            return Err(format!("weight of client {c} changed"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_eq_is_strict() {
        assert!(bitwise_eq(&[1.0, -0.0], &[1.0, -0.0]));
        assert!(!bitwise_eq(&[0.0], &[-0.0]));
        assert!(!bitwise_eq(&[1.0], &[1.0, 2.0]));
        assert_eq!(first_bit_mismatch(&[1.0, 2.0], &[1.0, 3.0]), Some(1));
        assert_eq!(first_bit_mismatch(&[1.0], &[1.0, 3.0]), Some(1));
        assert_eq!(first_bit_mismatch(&[], &[]), None);
    }

    #[test]
    fn divergence_is_relative() {
        assert_eq!(rel_l2_divergence(&[2.0], &[2.0]), 0.0);
        let d = rel_l2_divergence(&[2.2], &[2.0]);
        assert!((d - 0.1).abs() < 1e-6, "10% relative error, got {d}");
    }

    #[test]
    fn thread_invariance_holds_for_pool_work() {
        let _guard = crate::thread_lock();
        let out = check_thread_invariant(&[1, 2, 4], || {
            let items: Vec<f32> = (0..257).map(|i| i as f32 * 0.25).collect();
            pool::par_map(&items, 16, |_, &x| x.sqrt().sin())
        })
        .expect("par_map must be width-invariant");
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn thread_invariance_reports_mismatch() {
        let _guard = crate::thread_lock();
        let mut calls = 0u32;
        let r = check_thread_invariant(&[1, 2], || {
            calls += 1;
            vec![calls as f32]
        });
        let msg = r.unwrap_err();
        assert!(msg.contains("element 0"), "message locates the diff: {msg}");
    }

    #[test]
    fn checkpoint_roundtrip_covers_odd_values() {
        checkpoint_roundtrip_identity(&[]).unwrap();
        checkpoint_roundtrip_identity(&[0.0, -0.0, f32::MIN_POSITIVE, 1e30, -1e-30]).unwrap();
    }

    #[test]
    fn history_roundtrip_on_small_store() {
        let mut h = HistoryStore::new(1e-6);
        h.record_model(0, vec![0.5; 5]);
        h.record_model(1, vec![-0.5; 5]);
        h.record_join(2, 0);
        h.record_leave(2, 1);
        h.set_weight(2, 17.0);
        h.record_gradient(0, 2, &[0.1, -0.1, 0.0, 0.2, -0.2]);
        h.record_gradient(1, 2, &[-0.1, 0.1, 0.3, 0.0, 0.0]);
        history_roundtrip_identity(&h).unwrap();
    }
}
