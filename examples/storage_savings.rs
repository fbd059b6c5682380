//! The storage story (§I, challenge I): what an RSU actually has to keep
//! to support unlearning, with full-precision vs sign-only gradient
//! records side by side, plus model checkpointing.
//!
//! ```sh
//! cargo run --release --example storage_savings
//! ```

use fuiov::data::{partition::partition_iid, Dataset, DigitStyle};
use fuiov::fl::mobility::ChurnSchedule;
use fuiov::fl::{Client, FlConfig, HonestClient, Server};
use fuiov::nn::ModelSpec;
use fuiov::storage::segment;

fn main() {
    let seed = 3;
    let n_clients = 6;
    let rounds = 20;

    let style = DigitStyle {
        size: 12,
        ..Default::default()
    };
    let train = Dataset::digits(n_clients * 30, &style, seed);
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
            Box::new(HonestClient::new(id, spec, train.subset(&idx), 30, seed)) as Box<dyn Client>
        })
        .collect();

    // Keep both records so the comparison is byte-for-byte on the same run.
    let cfg = FlConfig::new(rounds, 0.1).keep_full_gradients(true);
    let mut server = Server::new(cfg, spec.build(seed).params());
    server.train(
        &mut clients,
        &ChurnSchedule::static_membership(n_clients, rounds),
    );

    let h = server.history();
    let full = server.full_store();
    println!(
        "model: {} parameters; {n_clients} vehicles × {rounds} rounds\n",
        spec.param_count()
    );
    println!(
        "gradient record, full f32 (FedRecover-style): {:>9} B",
        full.bytes()
    );
    println!(
        "gradient record, 2-bit directions (ours):     {:>9} B",
        h.direction_bytes()
    );
    println!(
        "per-round global models (both schemes):       {:>9} B",
        h.model_bytes()
    );
    println!(
        "\ngradient-storage savings: {:.2}%  (paper claims ~95%; 2 vs 32 bits is 93.75%)",
        h.gradient_savings_ratio() * 100.0
    );

    // Checkpoint the final model as one sealed keyframe and reload it.
    let encoded = segment::encode_keyframe(rounds, server.params());
    let (round, decoded) = segment::decode_keyframe(&encoded).expect("own encoding is valid");
    assert_eq!((round, decoded.as_slice()), (rounds, server.params()));
    println!(
        "\ncheckpointed final model: {} B (round-trip verified)",
        encoded.len()
    );

    // What δ does to the stored record: sparsity of the packed signs.
    for delta in [0.0f32, 1e-6, 1e-3, 1e-2] {
        let requant = h.requantized(full, delta);
        let dir = requant.direction(rounds - 1, 0).expect("recorded");
        println!(
            "δ = {delta:>7}: {:>5.1}% of elements stored as 0",
            dir.sparsity() * 100.0
        );
    }

    println!("\n{}", fuiov::obs::RunReport::capture());
}
