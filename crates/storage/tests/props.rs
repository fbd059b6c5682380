//! Property-based tests for the storage formats: serialisation
//! round-trips, thinning invariants, requantisation consistency, and the
//! tiered delta/spill codec.

use fuiov_storage::history::FullGradientStore;
use fuiov_storage::segment::{decode_history, encode_history};
use fuiov_storage::{delta, GradientDirection, HistoryStore, Tier, TierConfig};
use proptest::prelude::*;

/// Arbitrary `f32` including every bit pattern class (subnormals, ±0,
/// infinities, NaN payloads) — the delta codec must be exact on all of
/// them.
fn arb_f32_bits() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

/// `(base, cur)` at lengths 0..=67, each `cur` element nearby (a few
/// ulps away: short varints), identical (zero deltas) or an arbitrary
/// bit pattern (long varints).
#[allow(clippy::type_complexity)]
fn arb_delta_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (0usize..=67)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(arb_f32_bits(), n),
                prop::collection::vec((any::<u8>(), any::<u32>()), n),
            )
        })
        .prop_map(|(base, perturb)| {
            let cur: Vec<f32> = base
                .iter()
                .zip(&perturb)
                .map(|(b, &(kind, bits))| match kind % 4 {
                    0 | 1 => f32::from_bits(b.to_bits() ^ u32::from(kind % 64)),
                    2 => *b,
                    _ => f32::from_bits(bits),
                })
                .collect();
            (base, cur)
        })
}

/// δ as the quantiser pins draw it: 0, 1e-6, any finite non-negative
/// value, or +∞.
fn arb_delta() -> impl Strategy<Value = f32> {
    (0u8..4, any::<u32>()).prop_map(|(kind, bits)| match kind {
        0 => 0.0,
        1 => 1e-6,
        2 => f32::from_bits(bits % 0x7f80_0000),
        _ => f32::INFINITY,
    })
}

/// A gradient element probing every outcome of the compares against ±δ:
/// any bit pattern, exactly ±δ, one ulp either side of ±δ, ±0.0, ±∞, a
/// NaN of either sign and any payload, or a subnormal of either sign.
fn arb_element(delta: f32) -> impl Strategy<Value = f32> {
    (0u8..8, any::<u32>()).prop_map(move |(kind, bits)| {
        let pick = |options: &[f32]| options[bits as usize % options.len()];
        match kind {
            0 | 1 => f32::from_bits(bits),
            2 => pick(&[delta, -delta]),
            3 => pick(&[
                delta.next_up(),
                delta.next_down(),
                (-delta).next_up(),
                (-delta).next_down(),
            ]),
            4 => pick(&[0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY]),
            5 => f32::from_bits(bits | 0x7f80_0001),
            _ => f32::from_bits((bits & 0x807f_ffff) | 1),
        }
    })
}

/// The dead-zone direction of one element, by its definition.
fn reference_sign(v: f32, delta: f32) -> i8 {
    if v > delta {
        1
    } else if v < -delta {
        -1
    } else {
        0
    }
}

fn arb_history() -> impl Strategy<Value = HistoryStore> {
    let dim = 6usize;
    (1usize..8, 1usize..4).prop_flat_map(move |(rounds, clients)| {
        let models = prop::collection::vec(prop::collection::vec(-2.0f32..2.0, dim), rounds + 1);
        let grads = prop::collection::vec(
            prop::collection::vec(prop::collection::vec(-1.0f32..1.0, dim), rounds),
            clients,
        );
        let joins = prop::collection::vec(0usize..rounds, clients);
        (models, grads, joins).prop_map(move |(models, grads, joins)| {
            let mut h = HistoryStore::new(1e-4);
            for (t, m) in models.into_iter().enumerate() {
                h.record_model(t, m);
            }
            for (c, (gs, &join)) in grads.iter().zip(&joins).enumerate() {
                h.record_join(c, join);
                h.set_weight(c, (c + 1) as f32);
                for (t, g) in gs.iter().enumerate().skip(join) {
                    h.record_gradient(t, c, g);
                }
            }
            h
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The history file round-trips every field exactly, including the
    /// directions of rounds whose model was thinned away.
    #[test]
    fn serialisation_roundtrips(full in arb_history(), keep in 1usize..4) {
        let h = full.thinned_models(keep);
        let back = decode_history(&encode_history(&h).expect("encodes")).expect("decodes");
        prop_assert_eq!(back.delta(), h.delta());
        prop_assert_eq!(back.rounds(), h.rounds());
        prop_assert_eq!(back.direction_rounds(), h.direction_rounds());
        prop_assert_eq!(back.clients(), h.clients());
        for r in h.rounds() {
            prop_assert_eq!(back.model(r), h.model(r));
        }
        for r in h.direction_rounds() {
            prop_assert_eq!(back.clients_in_round(r), h.clients_in_round(r));
            for c in h.clients_in_round(r) {
                prop_assert_eq!(
                    back.direction(r, c).as_deref().map(GradientDirection::to_signs),
                    h.direction(r, c).as_deref().map(GradientDirection::to_signs)
                );
            }
        }
        for c in h.clients() {
            prop_assert_eq!(back.participation(c), h.participation(c));
            prop_assert_eq!(back.weight(c), h.weight(c));
        }
    }

    /// Thinning never increases model bytes, keeps endpoints, and the
    /// interpolated model at a *kept* round equals the stored one.
    #[test]
    fn thinning_invariants(h in arb_history(), keep in 1usize..6) {
        let thin = h.thinned_models(keep);
        prop_assert!(thin.model_bytes() <= h.model_bytes());
        let rounds = h.rounds();
        let (first, last) = (rounds[0], *rounds.last().unwrap());
        prop_assert!(thin.model(first).is_some());
        prop_assert!(thin.model(last).is_some());
        // Join rounds pinned.
        for c in h.clients() {
            let f = h.join_round(c).unwrap();
            prop_assert!(thin.model(f).is_some(), "join round {f} dropped");
        }
        // Interpolation at every round stays within the stored range and
        // matches exactly where a model survives.
        for r in rounds {
            let interp = thin.model_interpolated(r);
            prop_assert!(interp.is_some());
            if let Some(exact) = thin.model(r) {
                prop_assert_eq!(interp.unwrap(), exact.to_vec());
            }
        }
        // Directions untouched by thinning.
        prop_assert_eq!(thin.direction_bytes(), h.direction_bytes());
    }

    /// Requantising with the store's own δ from matching full gradients is
    /// the identity on directions.
    #[test]
    fn requantise_with_same_delta_is_identity(
        grads in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 5), 1..6),
    ) {
        let delta = 1e-3f32;
        let mut h = HistoryStore::new(delta);
        let mut full = FullGradientStore::new();
        h.record_model(0, vec![0.0; 5]);
        for (c, g) in grads.iter().enumerate() {
            h.record_join(c, 0);
            h.record_gradient(0, c, g);
            full.record(0, c, g.clone());
        }
        let re = h.requantized(&full, delta);
        for c in 0..grads.len() {
            prop_assert_eq!(
                re.direction(0, c).unwrap().to_signs(),
                h.direction(0, c).unwrap().to_signs()
            );
        }
    }

    /// Savings accounting is exact: packed bytes = Σ ⌈dim/4⌉ per entry.
    #[test]
    fn byte_accounting_is_exact(h in arb_history()) {
        let mut expected = 0usize;
        for r in h.rounds() {
            for c in h.clients_in_round(r) {
                expected += h.direction(r, c).unwrap().len().div_ceil(4);
            }
        }
        prop_assert_eq!(h.direction_bytes(), expected);
    }

    /// 2-bit pack/unpack round-trips every {-1, 0, +1} pattern at every
    /// length — including lengths that are not a multiple of 4, where the
    /// final byte is only partially used.
    #[test]
    fn direction_pack_unpack_roundtrips(
        signs in prop::collection::vec(-1i8..=1, 0..33),
    ) {
        let d = GradientDirection::from_signs(&signs);
        prop_assert_eq!(d.len(), signs.len());
        prop_assert_eq!(d.to_signs(), signs.clone());
        prop_assert_eq!(d.byte_size(), signs.len().div_ceil(4));
        // Element access agrees with bulk unpacking.
        for (i, &s) in signs.iter().enumerate() {
            prop_assert_eq!(d.sign(i), s);
        }
        // to_f32 is the same data widened.
        let f: Vec<f32> = signs.iter().map(|&s| f32::from(s)).collect();
        prop_assert_eq!(d.to_f32(), f);
    }

    /// Quantise→pack→unpack agrees with direct thresholding for arbitrary
    /// gradients and thresholds, and values at *exactly* ±δ fall in the
    /// dead zone (the threshold is strict).
    #[test]
    fn quantisation_boundary_is_strict(
        grad in prop::collection::vec(-2.0f32..2.0, 1..20),
        delta in 0.0f32..1.0,
        boundary_at in 0usize..19,
    ) {
        let mut grad = grad;
        if let Some(g) = grad.get_mut(boundary_at) {
            // Plant an exact ±δ element to probe the boundary.
            *g = if boundary_at % 2 == 0 { delta } else { -delta };
        }
        let d = GradientDirection::quantize(&grad, delta);
        prop_assert_eq!(d.len(), grad.len());
        for (i, &g) in grad.iter().enumerate() {
            let expected = if g > delta { 1 } else if g < -delta { -1 } else { 0 };
            prop_assert_eq!(
                d.sign(i), expected,
                "element {} = {} with delta {}", i, g, delta
            );
        }
        if boundary_at < grad.len() {
            prop_assert_eq!(d.sign(boundary_at), 0, "exact ±δ must quantise to 0");
        }
    }

    /// `quantize` writes, byte for byte, what packing each element's
    /// reference direction gives, at every length 0..=67: every residue
    /// of the 4-element byte, past the widest step LLVM may vectorise the
    /// loop by (16 lanes unrolled four times), from both ends of the
    /// drawn gradient so the slices start at varied alignments.
    #[test]
    fn quantize_packs_the_reference_bytes(
        (delta, grad) in arb_delta()
            .prop_flat_map(|d| (Just(d), prop::collection::vec(arb_element(d), 67))),
    ) {
        for n in 0..=grad.len() {
            for part in [&grad[..n], &grad[grad.len() - n..]] {
                let signs: Vec<i8> = part.iter().map(|&v| reference_sign(v, delta)).collect();
                let d = GradientDirection::quantize(part, delta);
                prop_assert_eq!(
                    d.packed_bytes(),
                    GradientDirection::from_signs(&signs).packed_bytes(),
                    "n={} delta={:e} part={:?}", n, delta, part
                );
                prop_assert_eq!(d.len(), n);
                prop_assert_eq!(d.byte_size(), n.div_ceil(4));
            }
        }
    }

    /// The quantiser is odd: negating the gradient negates every
    /// direction (NaN and the dead zone stay 0).
    #[test]
    fn quantize_is_odd(
        (delta, grad) in arb_delta()
            .prop_flat_map(|d| (Just(d), prop::collection::vec(arb_element(d), 0..64))),
    ) {
        let neg: Vec<f32> = grad.iter().map(|v| -v).collect();
        let pos = GradientDirection::quantize(&grad, delta).to_signs();
        let flipped: Vec<i8> = GradientDirection::quantize(&neg, delta)
            .to_signs()
            .iter()
            .map(|s| -s)
            .collect();
        prop_assert_eq!(pos, flipped);
    }

    /// Packing is canonical: distinct sign vectors give distinct packed
    /// bytes, equal ones identical packed values (via PartialEq).
    #[test]
    fn packing_is_injective(
        a in prop::collection::vec(-1i8..=1, 1..16),
        b in prop::collection::vec(-1i8..=1, 1..16),
    ) {
        let da = GradientDirection::from_signs(&a);
        let db = GradientDirection::from_signs(&b);
        prop_assert_eq!(a == b, da == db);
    }

    /// The raw delta codec round-trips *any* f32 bit patterns exactly —
    /// including NaN payloads, ±0, infinities and subnormals — into a
    /// stream of exactly its predicted length, and refuses that stream
    /// one byte short or one byte long.
    #[test]
    fn delta_codec_roundtrips_bitwise((base, cur) in arb_delta_pair()) {
        let mut buf = Vec::new();
        delta::encode(&base, &cur, &mut buf);
        prop_assert_eq!(buf.len(), delta::encoded_len(&base, &cur));
        let n = cur.len();
        let back = delta::decode(&base, &buf, n).expect("decodes");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&back), bits(&cur));
        if let Some((_, short)) = buf.split_last() {
            prop_assert_eq!(delta::decode(&base, short, n), None);
        }
        let mut long = buf.clone();
        long.push(0);
        prop_assert_eq!(delta::decode(&base, &long, n), None);
    }

    /// Delta-checkpointed spill storage reconstructs every round bitwise,
    /// keyframes and delta residuals alike (up to 20 rounds: keyframes at
    /// 0, 8 and 16), with a zero budget forcing every round through the
    /// spill tier.
    #[test]
    fn spilled_checkpoints_roundtrip_bitwise(
        models in prop::collection::vec(prop::collection::vec(arb_f32_bits(), 5), 1..20),
    ) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut h = HistoryStore::with_tier(1e-4, TierConfig::bounded(0));
        for (t, m) in models.iter().enumerate() {
            h.record_model(t, m.clone());
        }
        for (t, m) in models.iter().enumerate() {
            prop_assert_eq!(h.model_tier(t), Some(Tier::Spilled), "t={}", t);
            let got = h.model(t).expect("spilled round decodes");
            prop_assert_eq!(bits(&got), bits(m), "t={}", t);
        }
        prop_assert_eq!(h.tier_stats().decode_errors, 0);
    }
}

#[test]
#[should_panic(expected = "delta must be >= 0")]
fn quantize_refuses_a_negative_delta() {
    let _ = GradientDirection::quantize(&[1.0], -1e-6);
}

#[test]
#[should_panic(expected = "delta must be >= 0")]
fn quantize_refuses_a_nan_delta() {
    let _ = GradientDirection::quantize(&[1.0], f32::NAN);
}
