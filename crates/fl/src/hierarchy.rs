//! Hierarchical RSU/edge aggregation and per-round client sampling.
//!
//! The paper trains n = 100 vehicles against a single RSU; the IoV
//! setting it motivates (§II) is a tree of RSU and edge aggregators. This
//! module adds that tier without moving the determinism boundary:
//!
//! - [`AggregationTree`] is a fixed-shape reduction tree over the round's
//!   participant list (contiguous ranges, ragged last nodes allowed).
//! - [`aggregate_tree_into`] reduces through the tree with a *threaded*
//!   `f64` accumulator: each node's FedAvg fold is seeded with its left
//!   sibling subtree's accumulator, which makes the whole tree reduction
//!   exactly the flat left-to-right fold of
//!   [`aggregate_refs`](crate::aggregate::aggregate_refs). Tree shape
//!   therefore changes communication and storage layout — never floating
//!   point association, so flat vs tree is bitwise identical at any
//!   fan-out.
//! - [`sampled`]/[`apply_sampling`] implement per-round client sampling
//!   from a seeded hash stream (`Server::with_sample_frac`). A fraction
//!   ≥ 1.0 takes the identical no-filter code path, so golden traces are
//!   untouched unless sampling is explicitly enabled.
//!
//! The tree fan-out and the sampling fraction are set per server with
//! `Server::{with_tree_fanout, with_sample_frac}`; the library reads no
//! environment variable for them.

use fuiov_storage::{ClientId, Round};
use std::ops::Range;

use crate::aggregate::aggregate_refs_into;
use crate::config::AggregationRule;

/// Seed salt for the sampling stream, disjoint from the `rng::streams`
/// constants used elsewhere (CHURN is `0x0500_0000`).
const SAMPLE_STREAM: u64 = 0x0600_0000;

// ---------------------------------------------------------------------
// Per-round client sampling
// ---------------------------------------------------------------------

/// SplitMix64 finaliser: avalanche a 64-bit key.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from the top 53 bits of a mixed key.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Whether vehicle `v` is sampled into `round` at fraction `frac`: a
/// seeded per-`(round, vehicle)` hash threshold, O(1) and stateless, so
/// no round builds a shuffle permutation.
pub fn sampled(seed: u64, round: Round, v: ClientId, frac: f64) -> bool {
    if frac >= 1.0 {
        return true;
    }
    if frac <= 0.0 {
        return false;
    }
    let h = mix64(seed ^ SAMPLE_STREAM ^ mix64(round as u64).rotate_left(23) ^ mix64(v as u64));
    unit(h) < frac
}

/// Filters a round's active set through [`sampled`], counting the
/// vehicles left out on `hierarchy.sampled_out`. A fraction ≥ 1.0
/// returns the input untouched through the identical no-filter path —
/// the golden-trace guarantee for an unsampled server.
pub fn apply_sampling(
    mut active: Vec<ClientId>,
    seed: u64,
    round: Round,
    frac: f64,
) -> Vec<ClientId> {
    if frac >= 1.0 {
        return active;
    }
    let before = active.len();
    active.retain(|&v| sampled(seed, round, v, frac));
    fuiov_obs::counter!("hierarchy.sampled_out").add((before - active.len()) as u64);
    active
}

// ---------------------------------------------------------------------
// The aggregation tree
// ---------------------------------------------------------------------

/// A fixed-shape reduction tree over `n` participants with fan-out `f`:
/// leaf node `i` covers the contiguous participant range
/// `[i·f, min((i+1)·f, n))` (the last node may be ragged, down to a
/// single child), and each upper level groups `f` nodes of the level
/// below until a single root remains. With `n ≤ f` the root is the only
/// node. `n = fᵏ + 1`-style shapes produce single-child chains up the
/// right spine — still bitwise safe, because reduction order is the flat
/// participant order regardless of shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregationTree {
    n: usize,
    fanout: usize,
    level_widths: Vec<usize>,
}

impl AggregationTree {
    /// Builds the tree over `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `fanout < 2`.
    pub fn build(n: usize, fanout: usize) -> Self {
        assert!(n > 0, "AggregationTree: no participants");
        assert!(fanout >= 2, "AggregationTree: fanout must be >= 2");
        let mut level_widths = Vec::new();
        let mut w = n.div_ceil(fanout);
        level_widths.push(w);
        while w > 1 {
            w = w.div_ceil(fanout);
            level_widths.push(w);
        }
        AggregationTree {
            n,
            fanout,
            level_widths,
        }
    }

    /// Participants reduced by the tree.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Configured fan-out.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Leaf aggregator count (RSU tier width).
    pub fn leaf_count(&self) -> usize {
        self.level_widths[0]
    }

    /// Total aggregator nodes across all levels.
    pub fn node_count(&self) -> usize {
        self.level_widths.iter().sum()
    }

    /// Number of aggregator levels (leaf tier through root).
    pub fn depth(&self) -> usize {
        self.level_widths.len()
    }

    /// Aggregator-level widths, leaf tier first, root (width 1) last.
    pub fn level_widths(&self) -> &[usize] {
        &self.level_widths
    }

    /// The contiguous participant range of leaf node `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn leaf_range(&self, leaf: usize) -> Range<usize> {
        assert!(
            leaf < self.leaf_count(),
            "AggregationTree: leaf out of range"
        );
        leaf * self.fanout..((leaf + 1) * self.fanout).min(self.n)
    }

    /// Leaf participant ranges in ascending order.
    pub fn leaves(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.leaf_count()).map(|leaf| self.leaf_range(leaf))
    }

    /// The leaf node a participant index reduces through.
    pub fn leaf_of(&self, participant: usize) -> usize {
        participant / self.fanout
    }
}

/// Tree-shaped [`aggregate_refs_into`]:
/// bitwise identical output, `hierarchy.nodes_reduced` counts the nodes.
///
/// FedAvg reduces through the tree with the threaded accumulator (see the
/// module docs); the robust rules (median, trimmed mean, SignSGD) are
/// order-statistic computations that cannot be decomposed per subtree, so
/// the tree degrades to forwarding raw gradients and the reduction runs
/// flat at the root — identical by construction.
///
/// # Panics
///
/// Panics if `tree.participants() != grads.len()` or on the aggregation
/// preconditions of [`aggregate_refs`](crate::aggregate::aggregate_refs).
pub fn aggregate_tree_into(
    rule: AggregationRule,
    grads: &[&[f32]],
    weights: &[f32],
    tree: &AggregationTree,
    acc: &mut Vec<f64>,
    out: &mut Vec<f32>,
) {
    assert_eq!(
        tree.participants(),
        grads.len(),
        "aggregate_tree: tree shape does not match participant count"
    );
    assert!(!grads.is_empty(), "aggregate: no gradients");
    assert_eq!(
        grads.len(),
        weights.len(),
        "aggregate: weight count mismatch"
    );
    match rule {
        AggregationRule::FedAvg => {
            let dim = grads[0].len();
            let total: f64 = weights.iter().map(|w| f64::from(*w)).sum();
            assert!(total != 0.0, "weighted_mean: weights sum to zero");
            acc.clear();
            acc.resize(dim, 0.0);
            // Per-node reduction with the accumulator threaded through in
            // ascending participant order — exactly the flat left fold.
            for leaf in tree.leaves() {
                for i in leaf {
                    let (v, w) = (grads[i], weights[i]);
                    assert_eq!(v.len(), dim, "weighted_mean: length mismatch");
                    for (a, &x) in acc.iter_mut().zip(v) {
                        *a += f64::from(w) * f64::from(x);
                    }
                }
            }
            out.clear();
            out.extend(acc.iter().map(|a| (a / total) as f32));
        }
        _ => aggregate_refs_into(rule, grads, weights, acc, out),
    }
    fuiov_obs::counter!("hierarchy.nodes_reduced").add(tree.node_count() as u64);
}

/// Allocating wrapper over [`aggregate_tree_into`].
pub fn aggregate_tree(
    rule: AggregationRule,
    grads: &[&[f32]],
    weights: &[f32],
    tree: &AggregationTree,
) -> Vec<f32> {
    let mut acc = Vec::new();
    let mut out = Vec::new();
    aggregate_tree_into(rule, grads, weights, tree, &mut acc, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate_refs;

    fn grads(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * 31 + j * 7) % 13) as f32 / 3.0 - 2.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tree_shapes() {
        let t = AggregationTree::build(4, 2);
        assert_eq!(t.level_widths(), &[2, 1]);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.leaf_range(0), 0..2);
        assert_eq!(t.leaf_range(1), 2..4);
        // Ragged: 5 participants at fan-out 4 → a single-child last leaf.
        let t = AggregationTree::build(5, 4);
        assert_eq!(t.level_widths(), &[2, 1]);
        assert_eq!(t.leaf_range(1), 4..5);
        // n <= fanout: the root is the only node.
        let t = AggregationTree::build(3, 8);
        assert_eq!(t.level_widths(), &[1]);
        assert_eq!(t.node_count(), 1);
        // Right-spine chain: 9 = 2³ + 1 at fan-out 2.
        let t = AggregationTree::build(9, 2);
        assert_eq!(t.level_widths(), &[5, 3, 2, 1]);
        assert_eq!(t.leaf_of(8), 4);
    }

    #[test]
    fn tree_aggregation_is_bitwise_flat_for_fedavg() {
        let gs = grads(11, 7);
        let refs: Vec<&[f32]> = gs.iter().map(Vec::as_slice).collect();
        let weights: Vec<f32> = (0..11).map(|i| 1.0 + 0.25 * (i % 4) as f32).collect();
        let flat = aggregate_refs(AggregationRule::FedAvg, &refs, &weights);
        for fanout in 2..=12 {
            let tree = AggregationTree::build(refs.len(), fanout);
            let out = aggregate_tree(AggregationRule::FedAvg, &refs, &weights, &tree);
            let a: Vec<u32> = flat.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "fanout {fanout} broke bitwise identity");
        }
    }

    #[test]
    fn tree_aggregation_matches_flat_for_robust_rules() {
        let gs = grads(9, 5);
        let refs: Vec<&[f32]> = gs.iter().map(Vec::as_slice).collect();
        let weights = vec![1.0f32; 9];
        let tree = AggregationTree::build(9, 3);
        for rule in [
            AggregationRule::CoordinateMedian,
            AggregationRule::TrimmedMean { trim: 2 },
            AggregationRule::SignSgd { lambda: 0.1 },
        ] {
            let flat = aggregate_refs(rule, &refs, &weights);
            let out = aggregate_tree(rule, &refs, &weights, &tree);
            assert_eq!(flat, out, "{rule:?}");
        }
    }

    #[test]
    fn sampling_full_fraction_is_the_identity() {
        let active: Vec<ClientId> = (0..100).collect();
        assert_eq!(apply_sampling(active.clone(), 7, 3, 1.0), active);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let active: Vec<ClientId> = (0..2000).collect();
        let a = apply_sampling(active.clone(), 7, 3, 0.3);
        let b = apply_sampling(active.clone(), 7, 3, 0.3);
        assert_eq!(a, b);
        assert!(
            a.len() > 400 && a.len() < 800,
            "expected ~600 of 2000 sampled, got {}",
            a.len()
        );
        let c = apply_sampling(active, 7, 4, 0.3);
        assert_ne!(a, c, "a different round must resample");
    }
}
