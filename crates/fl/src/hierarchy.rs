//! Hierarchical RSU/edge aggregation and per-round client sampling.
//!
//! The paper trains n = 100 vehicles against a single RSU; the IoV
//! setting it motivates (§II) is a tree of RSU and edge aggregators. This
//! module adds that tier without moving the determinism boundary:
//!
//! - [`AggregationTree`] is a fixed-shape reduction tree over the round's
//!   participant list (contiguous ranges, ragged last nodes allowed).
//!   A FedAvg reduction that threads one `f64` accumulator through the
//!   nodes in participant order is exactly the flat left-to-right fold of
//!   [`aggregate_refs_into`](crate::aggregate::aggregate_refs_into), so
//!   the server runs that one fold and the tree only accounts: its node
//!   count goes to `hierarchy.nodes_reduced` and its per-tier bytes come
//!   from [`comms::tree_round_bytes`](crate::comms::tree_round_bytes).
//!   Tree shape changes communication accounting, never floating-point
//!   association: flat and tree are bitwise identical at any fan-out.
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

    /// The leaf node a participant index reduces through.
    pub fn leaf_of(&self, participant: usize) -> usize {
        participant / self.fanout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
