//! Property-based tests for the math substrate.

use fuiov_tensor::{solve, stats, vector, Mat};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_filter("finite", |v| v.is_finite())
}

fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1..max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(finite_f32(), n),
            prop::collection::vec(finite_f32(), n),
        )
    })
}

proptest! {
    #[test]
    fn dot_is_symmetric((x, y) in vec_pair(64)) {
        prop_assert_eq!(vector::dot(&x, &y), vector::dot(&y, &x));
    }

    #[test]
    fn dot_is_linear_in_scale((x, y) in vec_pair(64), a in -10.0f32..10.0) {
        let mut ax = x.clone();
        vector::scale(a, &mut ax);
        let lhs = vector::dot(&ax, &y);
        let rhs = a * vector::dot(&x, &y);
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + rhs.abs()));
    }

    #[test]
    fn triangle_inequality((x, y) in vec_pair(64)) {
        let sum = vector::add(&x, &y);
        prop_assert!(
            vector::l2_norm(&sum) <= vector::l2_norm(&x) + vector::l2_norm(&y) + 1e-3
        );
    }

    #[test]
    fn l2_distance_is_a_metric((x, y) in vec_pair(64)) {
        prop_assert_eq!(vector::l2_distance(&x, &y), vector::l2_distance(&y, &x));
        prop_assert_eq!(vector::l2_distance(&x, &x), 0.0);
    }

    #[test]
    fn axpy_matches_definition((x, y) in vec_pair(32), a in -5.0f32..5.0) {
        let mut out = y.clone();
        vector::axpy(a, &x, &mut out);
        for ((o, xi), yi) in out.iter().zip(&x).zip(&y) {
            prop_assert!((o - (a * xi + yi)).abs() < 1e-3);
        }
    }

    #[test]
    fn weighted_mean_is_within_bounds(x in prop::collection::vec(finite_f32(), 1..32)) {
        let y: Vec<f32> = x.iter().map(|v| v + 1.0).collect();
        let m = vector::weighted_mean(&[&x, &y], &[2.0, 3.0]);
        for ((mi, xi), yi) in m.iter().zip(&x).zip(&y) {
            prop_assert!(*mi >= xi.min(*yi) - 1e-4 && *mi <= xi.max(*yi) + 1e-4);
        }
    }

    #[test]
    fn sign_threshold_is_odd(x in prop::collection::vec(finite_f32(), 0..64), d in 0.0f32..1.0) {
        let neg: Vec<f32> = x.iter().map(|v| -v).collect();
        let s_pos = vector::sign_with_threshold(&x, d);
        let s_neg = vector::sign_with_threshold(&neg, d);
        for (a, b) in s_pos.iter().zip(&s_neg) {
            prop_assert_eq!(*a, -b);
        }
    }

    #[test]
    fn clip_l2_norm_bounded(mut x in prop::collection::vec(finite_f32(), 1..64), l in 0.01f32..10.0) {
        vector::clip_l2(&mut x, l);
        prop_assert!(vector::l2_norm(&x) <= l * 1.001);
    }

    #[test]
    fn matvec_distributes_over_addition(
        data in prop::collection::vec(-10.0f32..10.0, 6),
        u in prop::collection::vec(-10.0f32..10.0, 3),
        v in prop::collection::vec(-10.0f32..10.0, 3),
    ) {
        let m = Mat::from_vec(2, 3, data);
        let lhs = m.matvec(&vector::add(&u, &v));
        let rhs = vector::add(&m.matvec(&u), &m.matvec(&v));
        prop_assert!(vector::l2_distance(&lhs, &rhs) < 1e-2);
    }

    #[test]
    fn matvec_and_tr_matvec_share_f64_accumulation(
        data in prop::collection::vec(-10.0f32..10.0, 12),
        v in prop::collection::vec(-10.0f32..10.0, 4),
    ) {
        // Both kernels accumulate per output element in f64 with one final
        // f32 rounding, so Aᵀᵀ·v through either path is bitwise identical
        // and matches an explicit f64 reference.
        let m = Mat::from_vec(4, 3, data);
        let fast = m.tr_matvec(&v);
        let via_transpose = m.transpose().matvec(&v);
        prop_assert_eq!(
            fast.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
            via_transpose.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        );
        for (c, &got) in fast.iter().enumerate() {
            let reference = (0..4)
                .map(|r| f64::from(m.get(r, c)) * f64::from(v[r]))
                .sum::<f64>() as f32;
            prop_assert!((got - reference).abs() <= 1e-4 * (1.0 + reference.abs()));
        }
    }

    #[test]
    fn transpose_preserves_gram(data in prop::collection::vec(-5.0f32..5.0, 12)) {
        let m = Mat::from_vec(4, 3, data);
        // (AᵀA)ᵀ = AᵀA: the gram matrix is symmetric.
        let gram = m.tr_matmul(&m);
        prop_assert!(gram.max_abs_diff(&gram.transpose()) < 1e-4);
    }

    #[test]
    fn lu_reconstructs_diagonally_dominant(
        data in prop::collection::vec(-1.0f32..1.0, 16),
        b in prop::collection::vec(-1.0f32..1.0, 4),
    ) {
        let mut a = Mat::from_vec(4, 4, data);
        for i in 0..4 {
            a.set(i, i, a.get(i, i) + 5.0);
        }
        let x = solve::solve(&a, &b).expect("dominant systems are solvable");
        prop_assert!(vector::l2_distance(&a.matvec(&x), &b) < 1e-3);
    }

    #[test]
    fn inverse_roundtrip(data in prop::collection::vec(-1.0f32..1.0, 9)) {
        let mut a = Mat::from_vec(3, 3, data);
        for i in 0..3 {
            a.set(i, i, a.get(i, i) + 4.0);
        }
        let inv = solve::inverse(&a).expect("dominant");
        prop_assert!(a.matmul(&inv).max_abs_diff(&Mat::eye(3)) < 1e-3);
    }

    #[test]
    fn mean_bounded_by_extremes(x in prop::collection::vec(finite_f32(), 1..64)) {
        let m = stats::mean(&x);
        let lo = stats::min(&x).unwrap();
        let hi = stats::max(&x).unwrap();
        prop_assert!(m >= lo - 1e-3 && m <= hi + 1e-3);
    }

    #[test]
    fn percentile_is_monotone(x in prop::collection::vec(finite_f32(), 1..64)) {
        let p25 = stats::percentile(&x, 25.0).unwrap();
        let p75 = stats::percentile(&x, 75.0).unwrap();
        prop_assert!(p25 <= p75);
    }

    #[test]
    fn variance_is_translation_invariant(x in prop::collection::vec(-10.0f32..10.0, 2..64), c in -10.0f32..10.0) {
        let shifted: Vec<f32> = x.iter().map(|v| v + c).collect();
        let v1 = stats::variance(&x);
        let v2 = stats::variance(&shifted);
        prop_assert!((v1 - v2).abs() < 1e-2 * (1.0 + v1.abs()));
    }

    #[test]
    fn derived_seeds_never_collide_locally(master in any::<u64>(), s1 in 0u64..1000, s2 in 0u64..1000) {
        prop_assume!(s1 != s2);
        prop_assert_ne!(
            fuiov_tensor::rng::derive_seed(master, s1),
            fuiov_tensor::rng::derive_seed(master, s2)
        );
    }
}
