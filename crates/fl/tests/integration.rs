//! FL-crate integration tests: composed features (sampling + churn)
//! running through the real training loop.

use fuiov_data::{partition::partition_iid, Dataset, DigitStyle};
use fuiov_fl::mobility::{ChurnModel, ChurnSchedule};
use fuiov_fl::{Client, CommsReport, FlConfig, HonestClient, Server};
use fuiov_nn::ModelSpec;

const SPEC: ModelSpec = ModelSpec::Mlp {
    inputs: 144,
    hidden: 16,
    classes: 10,
};

fn shards(n: usize, seed: u64) -> Vec<Dataset> {
    let data = Dataset::digits(n * 20, &DigitStyle::small(), seed);
    partition_iid(data.len(), n, seed)
        .into_iter()
        .map(|idx| data.subset(&idx))
        .collect()
}

fn honest_clients(n: usize, seed: u64) -> Vec<Box<dyn Client>> {
    shards(n, seed)
        .into_iter()
        .enumerate()
        .map(|(id, d)| Box::new(HonestClient::new(id, SPEC, d, 20, seed)) as Box<dyn Client>)
        .collect()
}

#[test]
fn sampling_plus_churn_trains_and_accounts_traffic() {
    let seed = 33;
    let n = 8;
    let rounds = 20;
    let mut clients = honest_clients(n, seed);
    let churn = ChurnModel {
        arrival_prob: 0.3,
        departure_prob: 0.01,
        dropout_prob: 0.1,
        initial_active: 4,
    };
    let schedule = ChurnSchedule::sample(&churn, n, rounds, seed);
    let cfg = FlConfig::new(rounds, 0.2)
        .batch_size(20)
        .parallel_clients(false);
    let mut server = Server::new(cfg, SPEC.build(seed).params())
        .with_sampling_seed(seed)
        .with_sample_frac(0.75);
    server.train(&mut clients, &schedule);

    let report = CommsReport::from_summaries(SPEC.param_count(), server.summaries());
    assert_eq!(report.rounds().len(), rounds);
    // Sampling + churn: participation below the all-in maximum.
    assert!(report.total_participations() < n * rounds);
    assert!(report.total_participations() > 0);
    // ⌈dim/4⌉ rounding leaves the ratio a hair off the exact 15/16.
    assert!((report.uplink_savings() - 0.9375).abs() < 1e-3);
    // History participation is consistent with the summaries.
    let h = server.history();
    let recorded: usize = (0..rounds).map(|t| h.clients_in_round(t).len()).sum();
    assert_eq!(recorded, report.total_participations());
}

#[test]
fn parallel_pool_handles_uneven_client_counts() {
    // Regression guard for the thread fan-out: client counts that don't
    // divide evenly across threads must still produce identical models.
    for n in [1usize, 3, 7] {
        let mut serial = honest_clients(n, 40 + n as u64);
        let mut parallel = honest_clients(n, 40 + n as u64);
        let schedule = ChurnSchedule::static_membership(n, 4);
        let cfg_s = FlConfig::new(4, 0.1).batch_size(20).parallel_clients(false);
        let cfg_p = FlConfig::new(4, 0.1).batch_size(20).parallel_clients(true);
        let mut s1 = Server::new(cfg_s, SPEC.build(9).params());
        let mut s2 = Server::new(cfg_p, SPEC.build(9).params());
        s1.train(&mut serial, &schedule);
        s2.train(&mut parallel, &schedule);
        assert_eq!(s1.params(), s2.params(), "mismatch at n={n}");
    }
}
