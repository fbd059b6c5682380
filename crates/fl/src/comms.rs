//! Communication-cost accounting.
//!
//! Vehicle–RSU links are bandwidth-constrained, so the simulator tracks
//! what a run *would* transmit: each participating vehicle downloads the
//! global model and uploads its update, either as full `f32` or as 2-bit
//! signs (the RSA-style channel the paper's storage format mirrors). The
//! server adds each round's counts to the `fl.*_bytes` counters.

/// Byte counts one round would transmit with `participants` vehicles on a
/// `model_dim`-parameter model: `(download, full-f32 upload, 2-bit sign
/// upload)`. The server's live round accounting uses it, and the socket
/// plane's payload counters reconcile with it exactly.
pub fn round_bytes(model_dim: usize, participants: usize) -> (usize, usize, usize) {
    let model_bytes = model_dim * 4;
    let sign_bytes = model_dim.div_ceil(4);
    (
        participants * model_bytes,
        participants * model_bytes,
        participants * sign_bytes,
    )
}

/// Per-tier byte counts for one hierarchical round: what crosses the
/// vehicle–RSU links versus what crosses the RSU/edge backhaul.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierBytes {
    /// Model download to participating vehicles (participants × 4·d).
    pub down_vehicle: usize,
    /// Model fan-out across inter-tier links (one per non-root node).
    pub down_inter: usize,
    /// Sign-compressed vehicle uploads (participants × ⌈d/4⌉).
    pub up_vehicle_sign: usize,
    /// Full-`f32` partial aggregates forwarded up inter-tier links (one
    /// per non-root node — each node uploads exactly one reduced vector).
    pub up_inter_full: usize,
}

/// Byte counts one hierarchical round would transmit: vehicles talk to
/// their leaf aggregator, and every non-root tree node exchanges one
/// model-sized vector per direction with its parent. The vehicle-tier
/// numbers are identical to [`round_bytes`], so enabling the tree only
/// *adds* the inter-tier columns.
pub fn tree_round_bytes(
    model_dim: usize,
    participants: usize,
    tree: &crate::hierarchy::AggregationTree,
) -> TierBytes {
    let model_bytes = model_dim * 4;
    let (down, _, up_sign) = round_bytes(model_dim, participants);
    let inter_links = tree.node_count().saturating_sub(1);
    TierBytes {
        down_vehicle: down,
        down_inter: inter_links * model_bytes,
        up_vehicle_sign: up_sign,
        up_inter_full: inter_links * model_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_bytes_split_vehicle_and_backhaul() {
        use crate::hierarchy::AggregationTree;
        // 12 participants at fan-out 3: widths [4, 2, 1] → 7 nodes,
        // 6 inter-tier links.
        let tree = AggregationTree::build(12, 3);
        let t = tree_round_bytes(100, 12, &tree);
        assert_eq!(t.down_vehicle, 12 * 400);
        assert_eq!(t.up_vehicle_sign, 12 * 25);
        assert_eq!(t.down_inter, 6 * 400);
        assert_eq!(t.up_inter_full, 6 * 400);
        // A root-only tree has no inter-tier links at all.
        let solo = AggregationTree::build(2, 4);
        let t = tree_round_bytes(100, 2, &solo);
        assert_eq!(t.down_inter, 0);
        assert_eq!(t.up_inter_full, 0);
    }
}
