//! Property-based tests for the NN substrate: flat-parameter round-trips,
//! softmax invariants, and whole-model gradient checks on random inputs.

use fuiov_nn::loss::{softmax, softmax_cross_entropy};
use fuiov_nn::{ModelSpec, Tensor4};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-20.0f32..20.0, 1..16)) {
        let p = softmax(&logits);
        prop_assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_preserves_ordering(logits in prop::collection::vec(-20.0f32..20.0, 2..16)) {
        let p = softmax(&logits);
        for i in 0..logits.len() {
            for j in 0..logits.len() {
                if logits[i] > logits[j] {
                    prop_assert!(p[i] >= p[j]);
                }
            }
        }
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero_per_item(
        logits in prop::collection::vec(-5.0f32..5.0, 4),
        label in 0usize..4,
    ) {
        let t = Tensor4::from_vec(1, 4, 1, 1, logits);
        let (_, grad) = softmax_cross_entropy(&t, &[label]);
        let s: f32 = grad.as_slice().iter().sum();
        prop_assert!(s.abs() < 1e-5);
        // Only the true-label coordinate is negative.
        for (k, g) in grad.as_slice().iter().enumerate() {
            if k == label {
                prop_assert!(*g <= 0.0);
            } else {
                prop_assert!(*g >= 0.0);
            }
        }
    }

    #[test]
    fn params_roundtrip_any_seed(seed in any::<u64>()) {
        let spec = ModelSpec::Mlp { inputs: 6, hidden: 5, classes: 3 };
        let m = spec.build(seed);
        let p = m.params();
        let mut m2 = spec.build(seed.wrapping_add(1));
        m2.set_params(&p);
        prop_assert_eq!(m2.params(), p);
    }

    #[test]
    fn loss_grad_matches_finite_difference_on_random_input(
        seed in 0u64..50,
        raw in prop::collection::vec(-1.0f32..1.0, 6),
        label in 0usize..3,
    ) {
        // Linear spec: smooth everywhere, so finite differences are valid
        // for arbitrary random draws (ReLU kinks would need case-by-case
        // step sizes; the MLP variant is covered by unit tests).
        let spec = ModelSpec::Linear { inputs: 3, classes: 3 };
        let mut m = spec.build(seed);
        let x = Tensor4::from_vec(2, 3, 1, 1, raw);
        let labels = [label, (label + 1) % 3];
        let (_, grad) = m.loss_and_grad(&x, &labels);
        let params = m.params();
        let eps = 1e-2f32;
        // Spot-check a few coordinates.
        for idx in [0usize, params.len() / 2, params.len() - 1] {
            let mut p = params.clone();
            p[idx] += eps;
            m.set_params(&p);
            let (lu, _) = m.loss_and_grad(&x, &labels);
            p[idx] = params[idx] - eps;
            m.set_params(&p);
            let (ld, _) = m.loss_and_grad(&x, &labels);
            m.set_params(&params);
            let num = (lu - ld) / (2.0 * eps);
            prop_assert!(
                (num - grad[idx]).abs() < 5e-2 * (1.0 + num.abs()),
                "coord {}: numeric {} vs analytic {}", idx, num, grad[idx]
            );
        }
    }

    #[test]
    fn sgd_step_moves_against_gradient(seed in any::<u64>(), lr in 0.001f32..1.0) {
        let spec = ModelSpec::Linear { inputs: 4, classes: 2 };
        let mut m = spec.build(seed);
        let x = Tensor4::from_vec(1, 4, 1, 1, vec![0.5, -0.5, 0.25, 1.0]);
        let (loss_before, grad) = m.loss_and_grad(&x, &[0]);
        let mut params = m.params();
        fuiov_tensor::vector::axpy(-lr.min(0.1), &grad, &mut params);
        m.set_params(&params);
        let (loss_after, _) = m.loss_and_grad(&x, &[0]);
        // Small steps on a smooth convex-ish loss should not increase it
        // noticeably.
        prop_assert!(loss_after <= loss_before + 1e-3);
    }

    #[test]
    fn predictions_are_valid_classes(seed in any::<u64>()) {
        let spec = ModelSpec::Mlp { inputs: 4, hidden: 6, classes: 5 };
        let mut m = spec.build(seed);
        let x = Tensor4::from_vec(3, 4, 1, 1, (0..12).map(|i| i as f32 / 12.0).collect());
        for p in m.predict(&x) {
            prop_assert!(p < 5);
        }
    }
}
