//! Communication-cost accounting.
//!
//! Vehicle–RSU links are bandwidth-constrained, so the simulator tracks
//! what a run *would* transmit: each participating vehicle downloads the
//! global model and uploads its update. The report compares full-`f32`
//! uploads against 2-bit sign-compressed uploads (the RSA-style channel
//! the paper's storage format mirrors).

use crate::server::RoundSummary;

/// Byte counts one round would transmit with `participants` vehicles on a
/// `model_dim`-parameter model: `(download, full-f32 upload, 2-bit sign
/// upload)`. Shared by [`CommsReport`] and the server's live round
/// accounting so the two can never disagree.
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

/// Byte counts for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundComms {
    /// Round index.
    pub round: usize,
    /// Participating vehicles.
    pub participants: usize,
    /// Model download bytes (participants × 4·d).
    pub down_bytes: usize,
    /// Gradient upload bytes at full `f32` precision.
    pub up_bytes_full: usize,
    /// Gradient upload bytes at 2 bits/element.
    pub up_bytes_sign: usize,
}

/// Aggregate communication report for a training run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommsReport {
    rounds: Vec<RoundComms>,
    model_dim: usize,
}

impl CommsReport {
    /// Builds the report from a server's round summaries and model size.
    ///
    /// # Panics
    ///
    /// Panics if `model_dim == 0`.
    pub fn from_summaries(model_dim: usize, summaries: &[RoundSummary]) -> Self {
        assert!(model_dim > 0, "CommsReport: model_dim must be positive");
        let rounds = summaries
            .iter()
            .map(|s| {
                let (down, full, sign) = round_bytes(model_dim, s.participants.len());
                RoundComms {
                    round: s.round,
                    participants: s.participants.len(),
                    down_bytes: down,
                    up_bytes_full: full,
                    up_bytes_sign: sign,
                }
            })
            .collect();
        CommsReport { rounds, model_dim }
    }

    /// Model dimension the report was built for.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }

    /// Per-round entries.
    pub fn rounds(&self) -> &[RoundComms] {
        &self.rounds
    }

    /// Total download bytes across the run.
    pub fn total_down(&self) -> usize {
        self.rounds.iter().map(|r| r.down_bytes).sum()
    }

    /// Total full-precision upload bytes.
    pub fn total_up_full(&self) -> usize {
        self.rounds.iter().map(|r| r.up_bytes_full).sum()
    }

    /// Total sign-compressed upload bytes.
    pub fn total_up_sign(&self) -> usize {
        self.rounds.iter().map(|r| r.up_bytes_sign).sum()
    }

    /// Uplink savings of sign compression across the run (`0.0` for an
    /// empty run).
    pub fn uplink_savings(&self) -> f64 {
        let full = self.total_up_full();
        if full == 0 {
            return 0.0;
        }
        1.0 - self.total_up_sign() as f64 / full as f64
    }

    /// Total vehicle-rounds (sum of participants over rounds).
    pub fn total_participations(&self) -> usize {
        self.rounds.iter().map(|r| r.participants).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries() -> Vec<RoundSummary> {
        vec![
            RoundSummary {
                round: 0,
                participants: vec![0, 1, 2],
                update_norm: 1.0,
            },
            RoundSummary {
                round: 1,
                participants: vec![0, 2],
                update_norm: 0.5,
            },
            RoundSummary {
                round: 2,
                participants: vec![],
                update_norm: 0.0,
            },
        ]
    }

    #[test]
    fn per_round_byte_counts() {
        let r = CommsReport::from_summaries(100, &summaries());
        assert_eq!(r.rounds()[0].down_bytes, 3 * 400);
        assert_eq!(r.rounds()[0].up_bytes_full, 3 * 400);
        assert_eq!(r.rounds()[0].up_bytes_sign, 3 * 25);
        assert_eq!(r.rounds()[2].down_bytes, 0);
    }

    #[test]
    fn totals_and_savings() {
        let r = CommsReport::from_summaries(100, &summaries());
        assert_eq!(r.total_participations(), 5);
        assert_eq!(r.total_down(), 5 * 400);
        assert_eq!(r.total_up_full(), 5 * 400);
        assert_eq!(r.total_up_sign(), 5 * 25);
        assert!((r.uplink_savings() - 0.9375).abs() < 1e-12);
    }

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

    #[test]
    fn empty_run_is_zero() {
        let r = CommsReport::from_summaries(10, &[]);
        assert_eq!(r.total_down(), 0);
        assert_eq!(r.uplink_savings(), 0.0);
    }

    #[test]
    fn report_from_live_server() {
        use crate::client::HonestClient;
        use crate::config::FlConfig;
        use crate::mobility::ChurnSchedule;
        use crate::server::Server;
        use crate::Client;
        use fuiov_data::{Dataset, DigitStyle};
        use fuiov_nn::ModelSpec;

        let spec = ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        };
        let data = Dataset::digits(40, &DigitStyle::small(), 1);
        let parts = fuiov_data::partition::partition_iid(data.len(), 2, 1);
        let mut clients: Vec<Box<dyn Client>> = parts
            .into_iter()
            .enumerate()
            .map(|(id, idx)| {
                Box::new(HonestClient::new(id, spec, data.subset(&idx), 20, 1)) as Box<dyn Client>
            })
            .collect();
        let mut server = Server::new(
            FlConfig::new(3, 0.1).parallel_clients(false),
            spec.build(0).params(),
        );
        server.train(&mut clients, &ChurnSchedule::static_membership(2, 3));
        let report = CommsReport::from_summaries(spec.param_count(), server.summaries());
        assert_eq!(report.rounds().len(), 3);
        assert_eq!(report.total_participations(), 6);
        assert!(report.uplink_savings() > 0.93);
    }
}
