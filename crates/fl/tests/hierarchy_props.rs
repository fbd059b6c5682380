//! Property oracles for hierarchical aggregation.
//!
//! The load-bearing contract: a fixed-shape RSU/edge tree reduction is
//! **bitwise identical** to flat [`aggregate_refs`] FedAvg for *every*
//! participant count and fan-out — ragged last nodes, single-child
//! right spines, degenerate one-leaf trees, the lot. The golden traces
//! never need re-blessing when the tree is switched on.
//!
//! The sampling knob gets the same treatment: a fraction of 1.0 (and
//! every value outside `(0, 1)`) must take the exact no-filter code path,
//! so an unsampled server reproduces the unsampled trace bit for bit.
//! Tests exercise the pure apply functions and server builders directly;
//! the library reads no environment variable for either knob.

use fuiov_data::{Dataset, DigitStyle};
use fuiov_fl::aggregate::aggregate_refs;
use fuiov_fl::hierarchy::{aggregate_tree, apply_sampling, AggregationTree};
use fuiov_fl::mobility::ChurnSchedule;
use fuiov_fl::{AggregationRule, Client, FlConfig, HonestClient, Server};
use fuiov_nn::ModelSpec;
use proptest::prelude::*;

fn grads(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| ((i * 31 + j * 7) % 17) as f32 * 0.3 - 2.4)
                .collect()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Arbitrary participant counts, fan-outs, gradients and FedAvg
    /// weights: the tree reduction must reproduce flat aggregation
    /// bit for bit.
    #[test]
    fn tree_is_bitwise_flat_for_arbitrary_shapes(
        n in 1usize..70,
        fanout in 2usize..9,
        dim in 1usize..24,
        wsel in prop::collection::vec(0u8..16, 70),
    ) {
        let gs = grads(n, dim);
        let refs: Vec<&[f32]> = gs.iter().map(Vec::as_slice).collect();
        let weights: Vec<f32> = (0..n).map(|i| 0.25 + 0.25 * wsel[i] as f32).collect();
        let tree = AggregationTree::build(n, fanout);
        let flat = aggregate_refs(AggregationRule::FedAvg, &refs, &weights);
        let hier = aggregate_tree(AggregationRule::FedAvg, &refs, &weights, &tree);
        prop_assert_eq!(
            bits(&flat), bits(&hier),
            "tree (n={}, fanout={}) diverged from flat", n, fanout
        );
    }

    /// A full sampling fraction is the identity on every active set, for
    /// every seed and round — the knob disabled is the knob absent.
    #[test]
    fn full_sample_fraction_is_identity(
        active in prop::collection::vec(0usize..1_000_000, 0..40),
        seed in any::<u64>(),
        round in 0usize..512,
    ) {
        prop_assert_eq!(
            apply_sampling(active.clone(), seed, round, 1.0),
            active.clone()
        );
        // Out-of-range fractions normalise to the same identity.
        prop_assert_eq!(apply_sampling(active.clone(), seed, round, 2.5), active);
    }

    /// Sampling is a pure per-(seed, round, vehicle) predicate: applying
    /// it twice, or to any superset split, picks the same survivors.
    #[test]
    fn sampling_is_a_pure_predicate(
        active in prop::collection::vec(0usize..10_000, 1..60),
        seed in any::<u64>(),
        round in 0usize..64,
    ) {
        let mut active = active;
        active.sort_unstable();
        active.dedup();
        let once = apply_sampling(active.clone(), seed, round, 0.5);
        let twice = apply_sampling(once.clone(), seed, round, 0.5);
        prop_assert_eq!(&once, &twice, "sampling must be idempotent");
        let (a, b) = active.split_at(active.len() / 2);
        let mut split = apply_sampling(a.to_vec(), seed, round, 0.5);
        split.extend(apply_sampling(b.to_vec(), seed, round, 0.5));
        prop_assert_eq!(once, split, "sampling must be per-vehicle");
    }
}

/// The shapes the proptest ranges are most likely to under-sample,
/// pinned explicitly: single-child right spines (`n = fanout^k + 1`),
/// exact powers, ragged last nodes, and the one-participant tree.
#[test]
fn tree_is_bitwise_flat_on_adversarial_shapes() {
    for (n, fanout) in [
        (1usize, 2usize), // single participant, root-only
        (2, 2),           // exactly one full node
        (5, 2),           // 2^2 + 1: single-child chain up the spine
        (9, 2),           // widths [5, 3, 2, 1] — odd every level
        (17, 4),          // 4^2 + 1
        (28, 3),          // 3^3 + 1
        (64, 8),          // exact power: perfectly full tree
        (65, 8),          // exact power + 1
        (63, 8),          // exact power − 1: ragged last leaf
    ] {
        let gs = grads(n, 12);
        let refs: Vec<&[f32]> = gs.iter().map(Vec::as_slice).collect();
        let weights: Vec<f32> = (0..n).map(|i| 1.0 + 0.25 * (i % 4) as f32).collect();
        let tree = AggregationTree::build(n, fanout);
        let flat = aggregate_refs(AggregationRule::FedAvg, &refs, &weights);
        let hier = aggregate_tree(AggregationRule::FedAvg, &refs, &weights, &tree);
        assert_eq!(
            bits(&flat),
            bits(&hier),
            "tree (n={n}, fanout={fanout}) diverged from flat"
        );
    }
}

fn trained_params(server: Server) -> Vec<f32> {
    let spec = ModelSpec::Mlp {
        inputs: 144,
        hidden: 8,
        classes: 10,
    };
    let data = Dataset::digits(60, &DigitStyle::small(), 1);
    let parts = fuiov_data::partition::partition_iid(data.len(), 3, 1);
    let mut clients: Vec<Box<dyn Client>> = parts
        .into_iter()
        .enumerate()
        .map(|(id, idx)| {
            Box::new(HonestClient::new(id, spec, data.subset(&idx), 20, 1)) as Box<dyn Client>
        })
        .collect();
    let mut server = server;
    server.train(&mut clients, &ChurnSchedule::static_membership(3, 4));
    server.params().to_vec()
}

/// End-to-end golden-trace safety: a server with the sampling knob at
/// its identity value and the tree enabled produces *bitwise* the same
/// model as the stock flat server — the unsampled golden trace needs no
/// re-blessing.
#[test]
fn server_with_identity_knobs_reproduces_flat_training_bitwise() {
    let spec = ModelSpec::Mlp {
        inputs: 144,
        hidden: 8,
        classes: 10,
    };
    let cfg = || FlConfig::new(4, 0.1).parallel_clients(false);
    let init = spec.build(0).params();
    let flat = trained_params(Server::new(cfg(), init.clone()));
    let frac_one = trained_params(Server::new(cfg(), init.clone()).with_sample_frac(1.0));
    assert_eq!(
        bits(&flat),
        bits(&frac_one),
        "sample_frac 1.0 must be the unsampled code path"
    );
    let treed = trained_params(Server::new(cfg(), init).with_tree_fanout(Some(2)));
    assert_eq!(
        bits(&flat),
        bits(&treed),
        "hierarchical reduction must not perturb the trained bits"
    );
}
