//! Property oracles for hierarchical aggregation.
//!
//! The load-bearing contract: a server with an RSU/edge tree switched on
//! trains **bitwise** the same model as the flat server — the tree only
//! adds accounting, so the golden traces never need re-blessing when it
//! is switched on.
//!
//! The sampling knob gets the same treatment: a fraction of 1.0 (and
//! every value outside `(0, 1)`) must take the exact no-filter code path,
//! so an unsampled server reproduces the unsampled trace bit for bit.
//! Tests exercise the pure apply functions and server builders directly;
//! the library reads no environment variable for either knob.

use fuiov_data::{Dataset, DigitStyle};
use fuiov_fl::hierarchy::apply_sampling;
use fuiov_fl::mobility::ChurnSchedule;
use fuiov_fl::{Client, FlConfig, HonestClient, Server};
use fuiov_nn::ModelSpec;
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
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
