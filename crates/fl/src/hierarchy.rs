//! Hierarchical RSU/edge aggregation and million-vehicle cohorts.
//!
//! The paper trains n = 100 vehicles against a single RSU; the IoV
//! setting it motivates (§II) is a tree of RSU and edge aggregators over
//! orders of magnitude more vehicles. This module adds that tier without
//! moving the determinism boundary:
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
//! - [`run_cohort`] simulates 10⁵–10⁶ vehicles without materialising
//!   per-vehicle state: lazy churn ([`LazyChurn`]), shared data shards,
//!   and *group-level* sign history — one pseudo-client per RSU leaf in a
//!   [`HistoryStore`], which is also all that vehicle-level recovery
//!   replays — so history cost scales with tree leaves, not vehicles.
//!
//! The tree fan-out and the sampling fraction are set per server with
//! `Server::{with_tree_fanout, with_sample_frac}`; the library reads no
//! environment variable for them.

use crate::mobility::{mix64, unit, ChurnModel, LazyChurn};
use fuiov_storage::{ClientId, GradientDirection, HistoryStore, Round, TierConfig};
use std::ops::Range;

use crate::aggregate::aggregate_refs_into;
use crate::config::AggregationRule;

/// Seed salt for the sampling stream, disjoint from the `rng::streams`
/// constants used elsewhere (CHURN is `0x0500_0000`).
const SAMPLE_STREAM: u64 = 0x0600_0000;

// ---------------------------------------------------------------------
// Per-round client sampling
// ---------------------------------------------------------------------

/// Whether vehicle `v` is sampled into `round` at fraction `frac`: a
/// seeded per-`(round, vehicle)` hash threshold, O(1) and stateless, so a
/// million-vehicle round never builds a shuffle permutation.
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

// ---------------------------------------------------------------------
// Million-vehicle cohorts
// ---------------------------------------------------------------------

/// Configuration of a simulated RSU/edge cohort.
#[derive(Debug, Clone)]
pub struct CohortConfig {
    /// Simulated vehicle count (10⁵–10⁶ is the design point).
    pub n_vehicles: usize,
    /// Vehicles per RSU leaf aggregator.
    pub group_size: usize,
    /// Fan-out of the edge tiers above the RSU leaves.
    pub fanout: usize,
    /// Shared data shards: vehicle `v` trains on shard `v % n_shards`,
    /// so per-round gradient state is `n_shards × dim`, not
    /// `n_vehicles × dim`.
    pub n_shards: usize,
    /// Model dimension.
    pub dim: usize,
    /// Training rounds.
    pub rounds: usize,
    /// Server learning rate.
    pub lr: f32,
    /// Sign-quantisation dead zone for the group history.
    pub sign_delta: f32,
    /// Master seed (churn + sampling streams).
    pub seed: u64,
    /// Per-round sampling fraction (`1.0` = everyone).
    pub sample_frac: f64,
    /// Churn process; `None` keeps every vehicle active every round.
    pub churn: Option<ChurnModel>,
    /// History tier budget for the group store; `None` reads the env.
    pub tier: Option<TierConfig>,
}

impl CohortConfig {
    /// Defaults sized for smoke tests; scale `n_vehicles` up from here.
    pub fn new(n_vehicles: usize) -> Self {
        CohortConfig {
            n_vehicles,
            group_size: 1024,
            fanout: 8,
            n_shards: 64,
            dim: 64,
            rounds: 8,
            lr: 0.05,
            sign_delta: 1e-6,
            seed: 1,
            sample_frac: 1.0,
            churn: None,
            tier: None,
        }
    }

    /// Sets the RSU group size.
    pub fn group_size(mut self, group_size: usize) -> Self {
        assert!(group_size > 0, "CohortConfig: group_size must be > 0");
        self.group_size = group_size;
        self
    }

    /// Sets the edge-tier fan-out.
    pub fn fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }

    /// Sets the shared shard count.
    pub fn shards(mut self, n_shards: usize) -> Self {
        assert!(n_shards > 0, "CohortConfig: n_shards must be > 0");
        self.n_shards = n_shards;
        self
    }

    /// Sets the model dimension.
    pub fn dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Sets the round count.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sampling fraction.
    pub fn sample_frac(mut self, frac: f64) -> Self {
        self.sample_frac = frac;
        self
    }

    /// Enables churn.
    pub fn churn(mut self, model: ChurnModel) -> Self {
        self.churn = Some(model);
        self
    }

    /// Pins the group history's tier budget.
    pub fn tier(mut self, tier: TierConfig) -> Self {
        self.tier = Some(tier);
        self
    }

    /// RSU leaf count.
    pub fn leaf_count(&self) -> usize {
        self.n_vehicles.div_ceil(self.group_size)
    }

    /// The RSU leaf vehicle `v` reports to.
    pub fn leaf_of(&self, v: ClientId) -> usize {
        v / self.group_size
    }

    /// The vehicle range of RSU leaf `leaf`.
    pub fn leaf_vehicles(&self, leaf: usize) -> Range<ClientId> {
        leaf * self.group_size..((leaf + 1) * self.group_size).min(self.n_vehicles)
    }

    /// A vehicle's static FedAvg weight: quarter-integer steps in
    /// `{1.0, 1.25, 1.5, 1.75}` — heterogeneous but exactly
    /// representable, so weight sums are reproducible across platforms.
    pub fn weight_of(v: ClientId) -> f32 {
        1.0 + 0.25 * (v % 4) as f32
    }

    /// Full-membership weight of a leaf (every vehicle present).
    pub fn full_leaf_weight(&self, leaf: usize) -> f64 {
        self.leaf_vehicles(leaf)
            .map(|v| f64::from(Self::weight_of(v)))
            .sum()
    }
}

/// Everything the smoke tests and the scale experiment need to forget a
/// vehicle out of a finished cohort: its leaf, the replay window start,
/// and the leaf's reweighting after removal.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleForget {
    /// The forgotten vehicle.
    pub vehicle: ClientId,
    /// The RSU leaf (group-history pseudo-client) it reduced through.
    pub leaf: ClientId,
    /// The vehicle's join round — where subtree replay backtracks to.
    pub join_round: Round,
    /// The vehicle's own FedAvg weight.
    pub weight: f32,
    /// The leaf's weight with the vehicle removed.
    pub reduced_leaf_weight: f32,
    /// Whether the vehicle was its leaf's only member — then the whole
    /// leaf disappears instead of being reweighted.
    pub singleton: bool,
}

/// A finished cohort run: final model, group-level history, and the
/// resource trace the scale tests pin.
#[derive(Debug)]
pub struct CohortRun {
    /// The configuration that produced the run.
    pub cfg: CohortConfig,
    /// Final global model.
    pub params: Vec<f32>,
    /// Group-level history: one pseudo-client per RSU leaf. Vehicle-level
    /// recovery (`fuiov_core::subtree`) replays it, siblings included.
    pub history: HistoryStore,
    /// Peak resident bytes across the run (params + shard gradients +
    /// accumulators + history).
    pub peak_resident_bytes: usize,
    /// Total vehicle-round participations.
    pub participant_rounds: u64,
    /// Run-total byte accounting, computed per round from the vehicles
    /// that *actually* participated (churn- and sampling-filtered) via
    /// [`crate::comms::cohort_round_bytes`] — never from the full cohort.
    pub tier_bytes: crate::comms::TierBytes,
}

impl CohortRun {
    /// The lazy churn process of the run (same seed/model/horizon).
    pub fn lazy_churn(&self) -> Option<LazyChurn> {
        self.cfg
            .churn
            .map(|m| LazyChurn::new(m, self.cfg.rounds, self.cfg.seed))
    }

    /// Builds the forget spec for vehicle `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn forget_spec(&self, v: ClientId) -> VehicleForget {
        assert!(v < self.cfg.n_vehicles, "forget_spec: vehicle out of range");
        let leaf = self.cfg.leaf_of(v);
        let join_round = self.lazy_churn().map_or(0, |lazy| lazy.joined(v));
        let weight = CohortConfig::weight_of(v);
        let full = self.cfg.full_leaf_weight(leaf);
        let singleton = self.cfg.leaf_vehicles(leaf).len() == 1;
        VehicleForget {
            vehicle: v,
            leaf,
            join_round,
            weight,
            reduced_leaf_weight: (full - f64::from(weight)) as f32,
            singleton,
        }
    }
}

/// Deterministic pseudo-target of shard `s`, coordinate `j`.
fn shard_target(s: usize, j: usize) -> f32 {
    (mix64((s as u64) << 32 | j as u64) % 1000) as f32 / 500.0 - 1.0
}

/// Runs a full cohort simulation.
///
/// Per round, each shard's gradient pulls the model toward the shard
/// target with a period-3 sign oscillation layered on top (the 2-bit
/// history keeps signs only; without per-round flips every recovery
/// L-BFGS pair would collapse to `Δg = 0`). The global FedAvg fold
/// threads one `f64` accumulator across leaves in ascending vehicle
/// order — the same bitwise discipline as [`aggregate_tree_into`] —
/// while each leaf folds its own accumulator for its group-history
/// direction.
pub fn run_cohort(cfg: CohortConfig) -> CohortRun {
    assert!(cfg.n_vehicles > 0, "run_cohort: no vehicles");
    assert!(cfg.dim > 0, "run_cohort: zero dim");
    let lazy = cfg.churn.map(|m| LazyChurn::new(m, cfg.rounds, cfg.seed));
    let leaf_count = cfg.leaf_count();
    let edge_tree = (leaf_count > 1).then(|| AggregationTree::build(leaf_count, cfg.fanout.max(2)));

    let mut history = match cfg.tier {
        Some(tier) => HistoryStore::with_tier(cfg.sign_delta, tier),
        None => HistoryStore::new(cfg.sign_delta),
    };
    for leaf in 0..leaf_count {
        history.set_weight(leaf, cfg.full_leaf_weight(leaf) as f32);
    }

    let mut params = vec![0.0f32; cfg.dim];
    let mut shard_grads: Vec<Vec<f32>> = vec![vec![0.0; cfg.dim]; cfg.n_shards];
    let mut global_acc = vec![0.0f64; cfg.dim];
    let mut leaf_acc = vec![0.0f64; cfg.dim];
    let mut leaf_mean = vec![0.0f32; cfg.dim];
    let mut peak = 0usize;
    let mut participant_rounds = 0u64;
    let mut tier_bytes = crate::comms::TierBytes::default();
    let edge_nodes = edge_tree.as_ref().map_or(0, AggregationTree::node_count);

    for t in 0..cfg.rounds {
        history.record_model(t, params.clone());
        for (s, g) in shard_grads.iter_mut().enumerate() {
            for (j, gj) in g.iter_mut().enumerate() {
                let osc = if (t + j) % 3 < 2 { 0.5f32 } else { -0.5 };
                *gj = (params[j] - shard_target(s, j)) * 0.1 + osc;
            }
        }
        global_acc.iter_mut().for_each(|a| *a = 0.0);
        let mut total_w = 0.0f64;
        let mut round_participants = 0u64;
        let mut sampled_out = 0u64;
        let mut active_leaves = 0usize;
        for leaf in 0..leaf_count {
            leaf_acc.iter_mut().for_each(|a| *a = 0.0);
            let mut leaf_w = 0.0f64;
            let mut leaf_members = 0u64;
            for v in cfg.leaf_vehicles(leaf) {
                if lazy.as_ref().is_some_and(|l| !l.active_in(v, t)) {
                    continue;
                }
                if !sampled(cfg.seed, t, v, cfg.sample_frac) {
                    sampled_out += 1;
                    continue;
                }
                let w = CohortConfig::weight_of(v);
                let g = &shard_grads[v % cfg.n_shards];
                // Threaded global fold (ascending vehicle order) plus the
                // leaf's own fold for its group-history direction.
                for ((ga, la), &x) in global_acc.iter_mut().zip(leaf_acc.iter_mut()).zip(g) {
                    let wx = f64::from(w) * f64::from(x);
                    *ga += wx;
                    *la += wx;
                }
                total_w += f64::from(w);
                leaf_w += f64::from(w);
                leaf_members += 1;
            }
            if leaf_members > 0 {
                leaf_mean.clear();
                leaf_mean.extend(leaf_acc.iter().map(|a| (a / leaf_w) as f32));
                let dir = GradientDirection::quantize(&leaf_mean, cfg.sign_delta);
                history.record_join(leaf, t);
                history.record_direction(t, leaf, dir);
                round_participants += leaf_members;
                active_leaves += 1;
            }
        }
        if total_w > 0.0 {
            let lr = cfg.lr;
            for (p, a) in params.iter_mut().zip(&global_acc) {
                *p -= lr * (*a / total_w) as f32;
            }
        }
        participant_rounds += round_participants;
        let nodes = leaf_count + edge_nodes;
        fuiov_obs::counter!("hierarchy.nodes_reduced").add(nodes as u64);
        fuiov_obs::counter!("hierarchy.sampled_out").add(sampled_out);
        let tb = crate::comms::cohort_round_bytes(
            cfg.dim,
            round_participants as usize,
            active_leaves,
            edge_nodes,
        );
        tier_bytes.accumulate(&tb);
        fuiov_obs::counter!("hierarchy.bytes_down_vehicle").add(tb.down_vehicle as u64);
        fuiov_obs::counter!("hierarchy.bytes_up_vehicle_sign").add(tb.up_vehicle_sign as u64);
        fuiov_obs::counter!("hierarchy.bytes_down_inter").add(tb.down_inter as u64);
        fuiov_obs::counter!("hierarchy.bytes_up_inter_full").add(tb.up_inter_full as u64);
        let resident = (params.len() + leaf_mean.capacity()) * 4
            + shard_grads.iter().map(|g| g.len() * 4).sum::<usize>()
            + (global_acc.len() + leaf_acc.len()) * 8
            + history.resident_bytes();
        peak = peak.max(resident);
    }
    history.record_model(cfg.rounds, params.clone());

    CohortRun {
        cfg,
        params,
        history,
        peak_resident_bytes: peak,
        participant_rounds,
        tier_bytes,
    }
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

    #[test]
    fn cohort_run_scales_history_with_leaves_not_vehicles() {
        let cfg = CohortConfig::new(4096)
            .group_size(512)
            .dim(16)
            .rounds(4)
            .shards(8);
        let run = run_cohort(cfg);
        assert_eq!(run.cfg.leaf_count(), 8);
        let clients = run.history.clients();
        assert_eq!(clients.len(), 8, "one pseudo-client per leaf");
        assert_eq!(run.participant_rounds, 4 * 4096);
        for t in 0..4 {
            assert_eq!(run.history.clients_in_round(t).len(), 8);
        }
        assert!(run.history.model(4).is_some());
    }

    #[test]
    fn cohort_forget_spec_reweights_the_leaf() {
        let run = run_cohort(CohortConfig::new(64).group_size(16).dim(4).rounds(2));
        let spec = run.forget_spec(21);
        assert_eq!(spec.leaf, 1);
        assert_eq!(spec.join_round, 0, "no churn: everyone joins at 0");
        assert!(!spec.singleton);
        let full = run.cfg.full_leaf_weight(1) as f32;
        assert!((full - spec.reduced_leaf_weight - spec.weight).abs() < 1e-6);
        let single = run_cohort(CohortConfig::new(1).group_size(1).dim(4).rounds(2));
        assert!(single.forget_spec(0).singleton);
    }

    #[test]
    fn cohort_is_deterministic() {
        let cfg = CohortConfig::new(256).group_size(64).dim(8).rounds(3);
        let a = run_cohort(cfg.clone());
        let b = run_cohort(cfg);
        assert_eq!(a.params, b.params);
        assert_eq!(a.participant_rounds, b.participant_rounds);
    }

    #[test]
    fn cohort_sampling_and_churn_thin_participation() {
        let base = CohortConfig::new(512).group_size(64).dim(8).rounds(4);
        let full = run_cohort(base.clone());
        let sampled = run_cohort(base.clone().sample_frac(0.5).seed(9));
        assert!(sampled.participant_rounds < full.participant_rounds);
        let churned = run_cohort(base.churn(ChurnModel {
            initial_active: 256,
            arrival_prob: 0.05,
            departure_prob: 0.02,
            dropout_prob: 0.1,
        }));
        assert!(churned.participant_rounds < full.participant_rounds);
    }

    #[test]
    fn cohort_byte_accounting_counts_the_sampled_set() {
        use crate::comms::cohort_round_bytes;
        let dim = 8usize;
        let base = CohortConfig::new(512).group_size(64).dim(dim).rounds(4);

        // Unsampled, no churn: every vehicle participates every round and
        // the totals are exactly `rounds ×` the static per-round figure.
        let full = run_cohort(base.clone());
        let leaf_count = base.leaf_count();
        let edge_nodes = AggregationTree::build(leaf_count, base.fanout).node_count();
        let per_round = cohort_round_bytes(dim, 512, leaf_count, edge_nodes);
        assert_eq!(full.tier_bytes.down_vehicle, 4 * per_round.down_vehicle);
        assert_eq!(
            full.tier_bytes.up_vehicle_sign,
            4 * per_round.up_vehicle_sign
        );
        assert_eq!(full.tier_bytes.down_inter, 4 * per_round.down_inter);

        // Sampled: the vehicle-tier bytes must reconcile with the rounds
        // that actually happened (`participant_rounds`), NOT with the
        // full cohort — the regression this test pins.
        let sampled = run_cohort(base.sample_frac(0.5).seed(9));
        assert_eq!(
            sampled.tier_bytes.down_vehicle as u64,
            sampled.participant_rounds * 4 * dim as u64
        );
        assert_eq!(
            sampled.tier_bytes.up_vehicle_sign as u64,
            sampled.participant_rounds * dim.div_ceil(4) as u64
        );
        assert!(
            sampled.tier_bytes.down_vehicle < full.tier_bytes.down_vehicle,
            "sampling must shrink the accounted vehicle tier"
        );
        assert!(sampled.tier_bytes.up_inter_full <= full.tier_bytes.up_inter_full);
    }

    #[test]
    fn cohort_round_bytes_vehicle_tier_matches_flat_accounting() {
        use crate::comms::{cohort_round_bytes, round_bytes};
        // The vehicle-tier columns are the same quantities round_bytes
        // reports for the sampled participant count.
        let (down, _, up_sign) = round_bytes(100, 37);
        let tb = cohort_round_bytes(100, 37, 5, 7);
        assert_eq!(tb.down_vehicle, down);
        assert_eq!(tb.up_vehicle_sign, up_sign);
        // 5 active leaves + 6 non-root edge nodes = 11 inter links.
        assert_eq!(tb.down_inter, 11 * 400);
        assert_eq!(tb.up_inter_full, 11 * 400);
        // Single-leaf cohorts have no backhaul.
        assert_eq!(cohort_round_bytes(100, 37, 1, 0).down_inter, 0);
    }
}
