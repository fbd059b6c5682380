//! Property-based tests over cross-crate invariants.

use fuiov::storage::segment;
use fuiov::storage::GradientDirection;
use fuiov::tensor::{solve, vector, Mat};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    prop::num::f32::NORMAL
        .prop_map(|v| v % 10.0)
        .prop_filter("finite", |v| v.is_finite())
}

proptest! {
    /// Sign quantisation round-trips exactly through the 2-bit packing.
    #[test]
    fn direction_pack_roundtrip(grad in prop::collection::vec(small_f32(), 0..200), delta in 0.0f32..0.5) {
        let packed = GradientDirection::quantize(&grad, delta);
        let signs = packed.to_signs();
        prop_assert_eq!(signs.len(), grad.len());
        for (s, g) in signs.iter().zip(&grad) {
            let expected = if *g > delta { 1 } else if *g < -delta { -1 } else { 0 };
            prop_assert_eq!(*s, expected);
        }
        // Packed size is exactly ⌈n/4⌉ bytes.
        prop_assert_eq!(packed.byte_size(), grad.len().div_ceil(4));
    }

    /// Element-wise clipping (Eq. 7) bounds every element and never flips
    /// a sign.
    #[test]
    fn clip_elementwise_bounds_and_preserves_sign(
        mut v in prop::collection::vec(small_f32(), 1..100),
        l in 0.01f32..10.0,
    ) {
        let orig = v.clone();
        vector::clip_elementwise(&mut v, l);
        for (c, o) in v.iter().zip(&orig) {
            prop_assert!(c.abs() <= l + 1e-6);
            prop_assert!(c.signum() == o.signum() || *o == 0.0 || *c == 0.0);
            prop_assert!(c.abs() <= o.abs() + 1e-6);
        }
    }

    /// FedAvg with equal weights equals the arithmetic mean; with one
    /// dominant weight it approaches that client's gradient.
    #[test]
    fn weighted_mean_limits(
        a in prop::collection::vec(-1.0f32..1.0, 1..20),
    ) {
        let b: Vec<f32> = a.iter().map(|v| -v).collect();
        let eq = vector::weighted_mean(&[&a, &b], &[1.0, 1.0]);
        for v in &eq {
            prop_assert!(v.abs() < 1e-5);
        }
        let dominated = vector::weighted_mean(&[&a, &b], &[1e6, 1e-6]);
        prop_assert!(vector::l2_distance(&dominated, &a) < 1e-3);
    }

    /// Checkpoints round-trip bit-exactly.
    #[test]
    fn checkpoint_roundtrip(params in prop::collection::vec(small_f32(), 0..300)) {
        let buf = segment::encode_keyframe(3, &params);
        let back = segment::decode_keyframe(&buf).expect("own encoding decodes");
        prop_assert_eq!(back, (3, params));
    }

    /// LU solves of diagonally dominant systems have small residuals.
    #[test]
    fn lu_solve_residual(
        seed_vals in prop::collection::vec(-1.0f32..1.0, 9),
        b in prop::collection::vec(-1.0f32..1.0, 3),
    ) {
        let mut a = Mat::from_vec(3, 3, seed_vals);
        for i in 0..3 {
            a.set(i, i, a.get(i, i) + 4.0); // diagonal dominance
        }
        let x = solve::solve(&a, &b).expect("diagonally dominant is nonsingular");
        let r = a.matvec(&x);
        prop_assert!(vector::l2_distance(&r, &b) < 1e-3);
    }

    /// Dead-zone monotonicity: a larger δ never stores *more* non-zero
    /// directions.
    #[test]
    fn sparsity_monotone_in_delta(grad in prop::collection::vec(small_f32(), 1..200)) {
        let d1 = GradientDirection::quantize(&grad, 0.01);
        let d2 = GradientDirection::quantize(&grad, 0.1);
        prop_assert!(d2.sparsity() >= d1.sparsity() - 1e-12);
    }

    /// Sign aggregation (RSA, Eq. 3) output is bounded by λ·n.
    #[test]
    fn sign_aggregation_bounded(
        g1 in prop::collection::vec(-5.0f32..5.0, 1..50),
        lambda in 0.01f32..2.0,
    ) {
        let g2: Vec<f32> = g1.iter().rev().copied().collect();
        let grads = vec![g1.clone(), g2];
        let out = fuiov::fl::aggregate::aggregate(
            fuiov::fl::AggregationRule::SignSgd { lambda },
            &grads,
            &[1.0, 1.0],
        );
        for v in out {
            prop_assert!(v.abs() <= 2.0 * lambda + 1e-6);
        }
    }
}

mod lbfgs_props {
    use super::*;
    use fuiov::unlearn::LbfgsApprox;

    proptest! {
        /// On any SPD quadratic, the compact L-BFGS approximation
        /// satisfies the secant equation for the newest pair.
        #[test]
        fn secant_holds_on_random_quadratics(
            diag in prop::collection::vec(0.5f32..4.0, 4),
            dw1 in prop::collection::vec(-1.0f32..1.0, 4),
            dw2 in prop::collection::vec(-1.0f32..1.0, 4),
        ) {
            prop_assume!(vector::l2_norm(&dw1) > 0.1);
            prop_assume!(vector::l2_norm(&dw2) > 0.1);
            // Pairs must not be (nearly) collinear for a stable middle matrix.
            let cos = vector::cosine_similarity(&dw1, &dw2).unwrap_or(1.0);
            prop_assume!(cos.abs() < 0.9);
            let q = |v: &[f32]| -> Vec<f32> {
                v.iter().zip(&diag).map(|(x, d)| x * d).collect()
            };
            let dgs = vec![q(&dw1), q(&dw2)];
            let approx = match LbfgsApprox::new(&[dw1, dw2.clone()], &dgs) {
                Ok(a) => a,
                Err(_) => return Ok(()), // degenerate draw: fine
            };
            let pred = approx.hvp(&dw2);
            let err = vector::l2_distance(&pred, &dgs[1]);
            let scale = vector::l2_norm(&dgs[1]).max(1.0);
            prop_assert!(err / scale < 0.05, "secant error {err}");
        }
    }
}
