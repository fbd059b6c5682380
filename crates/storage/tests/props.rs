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
    /// including NaN payloads, ±0, infinities and subnormals.
    #[test]
    fn delta_codec_roundtrips_bitwise(
        pairs in prop::collection::vec((arb_f32_bits(), arb_f32_bits()), 0..64),
    ) {
        let base: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let cur: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let mut buf = Vec::new();
        delta::encode(&base, &cur, &mut buf);
        let back = delta::decode(&base, &buf, cur.len()).expect("decodes");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&back), bits(&cur));
    }

    /// Delta-checkpointed spill storage reconstructs every round bitwise
    /// for every keyframe interval k ∈ {1, 2, 5, 8}, with a zero budget
    /// forcing every round through the spill tier.
    #[test]
    fn spilled_checkpoints_roundtrip_bitwise_for_all_keyframe_intervals(
        models in prop::collection::vec(prop::collection::vec(arb_f32_bits(), 5), 1..20),
    ) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for k in [1usize, 2, 5, 8] {
            let tier = TierConfig::bounded(0).with_keyframe_interval(k);
            let mut h = HistoryStore::with_tier(1e-4, tier);
            for (t, m) in models.iter().enumerate() {
                h.record_model(t, m.clone());
            }
            for (t, m) in models.iter().enumerate() {
                prop_assert_eq!(h.model_tier(t), Some(Tier::Spilled), "k={} t={}", k, t);
                let got = h.model(t).expect("spilled round decodes");
                prop_assert_eq!(bits(&got), bits(m), "k={} t={}", k, t);
            }
            prop_assert_eq!(h.tier_stats().decode_errors, 0);
        }
    }
}
