//! The paper's §VI future work, end to end: federated unlearning on an
//! IoT vehicle-telemetry task. Vehicles classify driving manoeuvres from
//! 3-axis accelerometer windows; one vehicle invokes its right to be
//! forgotten and the server recovers from the 2-bit direction history —
//! the identical pipeline as the image tasks, because everything is a
//! flat parameter vector.
//!
//! ```sh
//! cargo run --release --example iot_unlearning
//! ```

use fuiov::data::synth_sensors::{MANEUVERS, NUM_CLASSES};
use fuiov::data::{partition::partition_iid, Dataset, SensorStyle};
use fuiov::eval::{test_accuracy, ConfusionMatrix};
use fuiov::fl::mobility::{ChurnSchedule, Membership};
use fuiov::fl::{Client, FlConfig, HonestClient, Server};
use fuiov::nn::ModelSpec;
use fuiov::unlearn::{backtrack_set, calibrate_lr, recover_set, NoOracle, RecoveryConfig};

fn main() {
    let seed = 23;
    let n_clients = 8;
    let rounds = 80;

    let style = SensorStyle::default();
    let train = Dataset::sensors(n_clients * 48, &style, seed);
    let test = Dataset::sensors(240, &style, seed + 1);
    let shards = partition_iid(train.len(), n_clients, seed);

    let spec = ModelSpec::Mlp {
        inputs: 3 * style.len,
        hidden: 48,
        classes: NUM_CLASSES,
    };
    let mut clients: Vec<Box<dyn Client>> = shards
        .into_iter()
        .enumerate()
        .map(|(id, idx)| {
            Box::new(HonestClient::new(id, spec, train.subset(&idx), 48, seed)) as Box<dyn Client>
        })
        .collect();

    let mut schedule = ChurnSchedule::static_membership(n_clients, rounds);
    schedule.set_membership(
        7,
        Membership {
            joined: 2,
            leaves_after: None,
            dropouts: vec![],
        },
    );
    let mut server = Server::new(FlConfig::new(rounds, 0.02), spec.build(seed).params());
    server.train(&mut clients, &schedule);

    let mut model = spec.build(0);
    model.set_params(server.params());
    println!(
        "manoeuvre classifier accuracy: {:.3}",
        test_accuracy(&mut model, &test)
    );
    let cm = ConfusionMatrix::evaluate(&mut model, &test);
    println!("\nper-manoeuvre recall:");
    for (i, m) in MANEUVERS.iter().enumerate() {
        let recall = cm
            .recall(i)
            .map_or("n/a".to_string(), |r| format!("{r:.2}"));
        println!("  {m:?}: {recall}");
    }

    // Vehicle 7 requests erasure; on this MLP task the sign-replay variant
    // recovers best (see EXPERIMENTS.md's IoT section).
    let lr = calibrate_lr(server.history()).map_or(0.001, |c| c * 2.0);
    let cfg = RecoveryConfig::new(lr).without_hessian();
    let bt = backtrack_set(server.history(), &[7]).expect("vehicle 7 participated");
    model.set_params(&bt.params);
    println!(
        "\nafter forgetting vehicle 7 (round {}): {:.3}",
        bt.join_round,
        test_accuracy(&mut model, &test)
    );
    let out =
        recover_set(server.history(), &[7], &cfg, &mut NoOracle, |_, _| {}).expect("recovery");
    model.set_params(&out.params);
    println!(
        "after server-only recovery ({} rounds): {:.3}",
        out.rounds_replayed,
        test_accuracy(&mut model, &test)
    );

    println!("\n{}", fuiov::obs::RunReport::capture());
}
