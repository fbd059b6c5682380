//! Hand-computed byte-accounting checks for `comms::round_bytes`.
//!
//! The invariants the fault harness and the paper's overhead tables rely
//! on: per round, the download is `participants × 4·d`, the full-`f32`
//! upload is `participants × 4·d`, and the sign upload is `participants
//! × ⌈2·d/8⌉` (2 bits per element, packed 4 per byte).

use fuiov_fl::comms::round_bytes;

#[test]
fn sign_upload_bytes_use_ceiling_division() {
    // d = 7: 2·7 = 14 bits → ⌈14/8⌉ = 2 bytes per vehicle.
    assert_eq!(round_bytes(7, 3).2, 3 * 2);
    // d = 8: exactly 2 bytes.
    assert_eq!(round_bytes(8, 1).2, 2);
    // d = 9: one ragged element forces a third byte.
    assert_eq!(round_bytes(9, 1).2, 3);
    // d = 1: still a whole byte on the wire.
    assert_eq!(round_bytes(1, 2).2, 2);
}

#[test]
fn per_round_invariants_hold_for_every_dimension() {
    for d in 1usize..40 {
        for n in 0usize..5 {
            let (down, up_full, up_sign) = round_bytes(d, n);
            assert_eq!(down, n * 4 * d, "d={d} n={n}");
            assert_eq!(up_full, n * 4 * d, "d={d} n={n}");
            assert_eq!(up_sign, n * (2 * d).div_ceil(8), "d={d} n={n}");
        }
    }
}

#[test]
fn hand_computed_multi_round_totals() {
    // d = 10 → model 40 B, signs ⌈20/8⌉ = 3 B.
    // Round 0: 3 vehicles, round 1: 1 vehicle, round 2: nobody.
    let (mut down, mut up_full, mut up_sign) = (0, 0, 0);
    for n in [3, 1, 0] {
        let (d, f, s) = round_bytes(10, n);
        down += d;
        up_full += f;
        up_sign += s;
    }
    assert_eq!(down, 4 * 40);
    assert_eq!(up_full, 4 * 40);
    assert_eq!(up_sign, 4 * 3);
    // Savings: 1 − 12/160 = 0.925.
    assert!((1.0 - up_sign as f64 / up_full as f64 - 0.925).abs() < 1e-12);
}

#[test]
fn zero_participant_rounds_cost_nothing() {
    assert_eq!(round_bytes(100, 0), (0, 0, 0));
    assert_eq!(round_bytes(100, 1), (400, 400, 25));
}

#[test]
fn accounting_matches_recorded_history_bytes() {
    // The wire accounting and the storage accounting use the same packing:
    // a round's sign upload bytes equal the history's direction bytes for
    // that round's participants.
    use fuiov_storage::HistoryStore;
    let d = 13; // ragged: ⌈26/8⌉ = 4 bytes
    let mut h = HistoryStore::new(1e-6);
    h.record_model(0, vec![0.0; d]);
    let grad: Vec<f32> = (0..d)
        .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
        .collect();
    h.record_join(0, 0);
    h.record_join(1, 0);
    h.record_gradient(0, 0, &grad);
    h.record_gradient(0, 1, &grad);
    assert_eq!(round_bytes(d, 2).2, h.direction_bytes());
}
