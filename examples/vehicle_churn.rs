//! Unlearning under IoV churn (the paper's headline setting): vehicles
//! join the RSU's federation at arbitrary rounds, drop out of individual
//! rounds, and permanently depart. A vehicle that has *already left*
//! requests erasure — no client can help, so the server recovers from its
//! stored history alone.
//!
//! ```sh
//! cargo run --release --example vehicle_churn
//! ```

use fuiov::data::{partition::partition_iid, Dataset, DigitStyle};
use fuiov::eval::test_accuracy;
use fuiov::fl::mobility::{ChurnModel, ChurnSchedule};
use fuiov::fl::{Client, FlConfig, HonestClient, Server};
use fuiov::nn::ModelSpec;
use fuiov::unlearn::{backtrack_set, calibrate_lr, recover_set, NoOracle, RecoveryConfig};

fn main() {
    let seed = 11;
    let n_clients = 10;
    let rounds = 80;

    // A churn process: 4 vehicles in range initially, arrivals at 20 % per
    // round, occasional dropouts, rare departures.
    let churn = ChurnModel {
        arrival_prob: 0.20,
        departure_prob: 0.02,
        dropout_prob: 0.05,
        initial_active: 4,
    };
    let schedule = ChurnSchedule::sample(&churn, n_clients, rounds, seed);
    for v in 0..n_clients {
        let m = schedule.membership(v);
        println!(
            "vehicle {v}: joins round {:>2}, {} {} dropouts",
            m.joined,
            match m.leaves_after {
                Some(l) => format!("departs after round {l},"),
                None => "stays,".to_string(),
            },
            m.dropouts.len(),
        );
    }

    let style = DigitStyle {
        size: 12,
        ..Default::default()
    };
    let train = Dataset::digits(n_clients * 40, &style, seed);
    let test = Dataset::digits(200, &style, seed + 1);
    let shards = partition_iid(train.len(), n_clients, seed);
    let spec = ModelSpec::Mlp {
        inputs: 144,
        hidden: 32,
        classes: 10,
    };
    let mut clients: Vec<Box<dyn Client>> = shards
        .into_iter()
        .enumerate()
        .map(|(id, idx)| {
            Box::new(HonestClient::new(id, spec, train.subset(&idx), 40, seed)) as Box<dyn Client>
        })
        .collect();

    let mut server = Server::new(FlConfig::new(rounds, 0.1), spec.build(seed).params());
    server.train(&mut clients, &schedule);

    let mut model = spec.build(0);
    model.set_params(server.params());
    println!(
        "\ntrained accuracy: {:.3}",
        test_accuracy(&mut model, &test)
    );

    // Pick a vehicle that actually participated and joined mid-training —
    // ideally one that has already departed (the hard case for
    // FedRecover-style schemes, routine for this one).
    let history = server.history();
    let candidate = history
        .clients()
        .into_iter()
        .filter(|&c| history.join_round(c).is_some_and(|f| f > 0))
        .max_by_key(|&c| {
            let departed = history.participation(c).and_then(|p| p.left).is_some();
            (usize::from(departed), history.join_round(c).unwrap_or(0))
        })
        .expect("some vehicle joined mid-training");
    let part = history.participation(candidate).expect("participated");
    println!(
        "\nforgetting vehicle {candidate} (joined round {}, {})",
        part.joined,
        match part.left {
            Some(l) => format!("departed after round {l}"),
            None => "still in range".to_string(),
        }
    );

    let lr = calibrate_lr(history).map_or(0.1, |c| c * 2.0);
    let cfg = RecoveryConfig::new(lr);
    let bt = backtrack_set(history, &[candidate]).expect("backtrack");
    model.set_params(&bt.params);
    println!(
        "after forgetting (back to round {}): {:.3}",
        bt.join_round,
        test_accuracy(&mut model, &test)
    );

    // NoOracle: every vehicle may be offline; recovery is server-only.
    let out = recover_set(history, &[candidate], &cfg, &mut NoOracle, |_, _| {}).expect("recovery");
    model.set_params(&out.params);
    println!(
        "after server-only recovery ({} rounds, {} estimator fallbacks): {:.3}",
        out.rounds_replayed,
        out.estimator_fallbacks,
        test_accuracy(&mut model, &test)
    );
}
