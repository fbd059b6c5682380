//! Quickstart: train a small federation, forget one vehicle, recover.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fuiov::data::{partition::partition_iid, Dataset, DigitStyle};
use fuiov::eval::test_accuracy;
use fuiov::fl::mobility::{ChurnSchedule, Membership};
use fuiov::fl::{Client, FlConfig, HonestClient, Server};
use fuiov::nn::ModelSpec;
use fuiov::unlearn::{backtrack_set, calibrate_lr, recover_set, NoOracle, RecoveryConfig};

fn main() {
    let seed = 42;
    let n_clients = 6;
    let rounds = 100;

    // 1. Data: a synthetic 10-class digit task, split IID across vehicles.
    let style = DigitStyle {
        size: 12,
        ..Default::default()
    };
    let train = Dataset::digits(n_clients * 40, &style, seed);
    let test = Dataset::digits(200, &style, seed + 1);
    let shards = partition_iid(train.len(), n_clients, seed);

    // 2. Clients: one model spec shared by everyone.
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

    // 3. Train. Vehicle 5 joins late (round 2) — it will ask to be
    //    forgotten, and backtracking will return to exactly that round.
    let mut schedule = ChurnSchedule::static_membership(n_clients, rounds);
    schedule.set_membership(
        5,
        Membership {
            joined: 2,
            leaves_after: None,
            dropouts: vec![],
        },
    );
    let mut server = Server::new(FlConfig::new(rounds, 0.1), spec.build(seed).params());
    server.train(&mut clients, &schedule);

    let mut model = spec.build(0);
    model.set_params(server.params());
    println!(
        "trained model accuracy:    {:.3}",
        test_accuracy(&mut model, &test)
    );
    println!(
        "history: {} rounds, {} B of packed directions ({:.1}% saved vs f32)",
        server.history().rounds().len(),
        server.history().direction_bytes(),
        server.history().gradient_savings_ratio() * 100.0
    );

    // 4. Vehicle 5 invokes its right to be forgotten. The server
    //    backtracks to w_F and recovers — no vehicle participates.
    let lr = calibrate_lr(server.history()).map_or(0.1, |c| c * 2.0);
    let cfg = RecoveryConfig::new(lr);

    let bt = backtrack_set(server.history(), &[5]).expect("vehicle 5 participated");
    model.set_params(&bt.params);
    println!(
        "after forgetting (w_{}):    {:.3}",
        bt.join_round,
        test_accuracy(&mut model, &test)
    );

    let out =
        recover_set(server.history(), &[5], &cfg, &mut NoOracle, |_, _| {}).expect("recovery");
    model.set_params(&out.params);
    println!(
        "after recovery ({} rounds): {:.3}",
        out.rounds_replayed,
        test_accuracy(&mut model, &test)
    );

    // 5. What did that run actually do? The obs registry kept count
    //    (`fuiov::obs::set_enabled(false)` turns collection off).
    println!("\n{}", fuiov::obs::RunReport::capture());
}
