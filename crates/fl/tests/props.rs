//! Property-based tests for aggregation rules and schedules.

use fuiov_fl::aggregate::aggregate;
use fuiov_fl::AggregationRule;
use proptest::prelude::*;

fn grads(n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-10.0f32..10.0, dim), n)
}

proptest! {
    /// Every aggregation rule's output lies coordinate-wise within the
    /// min/max envelope of the inputs (for SignSgd, within ±λ·n).
    #[test]
    fn aggregates_stay_in_envelope(gs in grads(5, 8)) {
        let weights = vec![1.0f32; gs.len()];
        for rule in [
            AggregationRule::FedAvg,
            AggregationRule::CoordinateMedian,
            AggregationRule::TrimmedMean { trim: 1 },
        ] {
            let out = aggregate(rule, &gs, &weights);
            for j in 0..out.len() {
                let lo = gs.iter().map(|g| g[j]).fold(f32::INFINITY, f32::min);
                let hi = gs.iter().map(|g| g[j]).fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(
                    out[j] >= lo - 1e-4 && out[j] <= hi + 1e-4,
                    "{rule:?} escaped envelope at {j}: {} not in [{lo}, {hi}]", out[j]
                );
            }
        }
        let out = aggregate(AggregationRule::SignSgd { lambda: 0.5 }, &gs, &weights);
        prop_assert!(out.iter().all(|v| v.abs() <= 0.5 * gs.len() as f32 + 1e-6));
    }

    /// FedAvg is permutation-invariant (clients in any order).
    #[test]
    fn fedavg_is_permutation_invariant(gs in grads(4, 6)) {
        let weights = [1.0f32, 2.0, 3.0, 4.0];
        let a = aggregate(AggregationRule::FedAvg, &gs, &weights);
        let perm: Vec<Vec<f32>> = vec![gs[2].clone(), gs[0].clone(), gs[3].clone(), gs[1].clone()];
        let perm_w = [weights[2], weights[0], weights[3], weights[1]];
        let b = aggregate(AggregationRule::FedAvg, &perm, &perm_w);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// The median ignores a single arbitrarily-corrupted client.
    #[test]
    fn median_bounds_single_outlier(
        gs in grads(4, 6),
        outlier in prop::collection::vec(-1e6f32..1e6, 6),
    ) {
        let mut with_outlier = gs.clone();
        with_outlier.push(outlier);
        let weights = vec![1.0f32; with_outlier.len()];
        let out = aggregate(AggregationRule::CoordinateMedian, &with_outlier, &weights);
        for j in 0..out.len() {
            let lo = gs.iter().map(|g| g[j]).fold(f32::INFINITY, f32::min);
            let hi = gs.iter().map(|g| g[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(
                out[j] >= lo - 1e-4 && out[j] <= hi + 1e-4,
                "outlier leaked through the median at {j}"
            );
        }
    }

    /// Dataset-size weighting: duplicating a client is the same as
    /// doubling its weight.
    #[test]
    fn duplicating_equals_reweighting(gs in grads(3, 5)) {
        let mut dup = gs.clone();
        dup.push(gs[0].clone());
        let a = aggregate(AggregationRule::FedAvg, &dup, &[1.0, 1.0, 1.0, 1.0]);
        let b = aggregate(AggregationRule::FedAvg, &gs, &[2.0, 1.0, 1.0]);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}
