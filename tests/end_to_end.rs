//! Integration tests: the full train → forget → recover pipeline through
//! the public facade, spanning every crate.

use fuiov::data::{partition::partition_iid, Dataset, DigitStyle};
use fuiov::eval::test_accuracy;
use fuiov::fl::mobility::{ChurnSchedule, Membership};
use fuiov::fl::{Client, FlConfig, HonestClient, Server};
use fuiov::nn::ModelSpec;
use fuiov::unlearn::{
    backtrack_set, calibrate_lr, recover_set, NoOracle, RecoveryConfig, RecoveryOutcome,
    UnlearnError,
};

const SPEC: ModelSpec = ModelSpec::Mlp {
    inputs: 144,
    hidden: 16,
    classes: 10,
};

struct World {
    server: Server,
    test: Dataset,
}

fn train_world(seed: u64, n_clients: usize, rounds: usize, forgotten: usize) -> World {
    let style = DigitStyle {
        size: 12,
        ..Default::default()
    };
    let train = Dataset::digits(n_clients * 20, &style, seed);
    let test = Dataset::digits(120, &style, seed + 1);
    let shards = partition_iid(train.len(), n_clients, seed);
    let mut clients: Vec<Box<dyn Client>> = shards
        .into_iter()
        .enumerate()
        .map(|(id, idx)| {
            Box::new(HonestClient::new(id, SPEC, train.subset(&idx), 20, seed)) as Box<dyn Client>
        })
        .collect();
    let mut schedule = ChurnSchedule::static_membership(n_clients, rounds);
    schedule.set_membership(
        forgotten,
        Membership {
            joined: 2,
            leaves_after: None,
            dropouts: vec![],
        },
    );
    let cfg = FlConfig::new(rounds, 0.1)
        .batch_size(20)
        .keep_full_gradients(true);
    let mut server = Server::new(cfg, SPEC.build(seed).params());
    server.train(&mut clients, &schedule);
    World { server, test }
}

/// Forgets `client` and recovers from the history alone.
fn recover_one(
    server: &Server,
    client: usize,
    cfg: &RecoveryConfig,
) -> Result<RecoveryOutcome, UnlearnError> {
    recover_set(server.history(), &[client], cfg, &mut NoOracle, |_, _| {})
}

fn accuracy(params: &[f32], test: &Dataset) -> f32 {
    let mut m = SPEC.build(0);
    m.set_params(params);
    test_accuracy(&mut m, test)
}

#[test]
fn full_pipeline_forgets_and_recovers() {
    let w = train_world(1, 5, 20, 4);
    let history = w.server.history();

    let lr = calibrate_lr(history).expect("history rich enough to calibrate");
    let cfg = RecoveryConfig::new(lr * 2.0);

    let bt = backtrack_set(history, &[4]).expect("backtrack");
    assert_eq!(bt.join_round, 2);
    assert_eq!(&bt.params[..], &*history.model(2).unwrap());

    let out = recover_one(&w.server, 4, &cfg).expect("recover");
    assert_eq!(out.rounds_replayed, 18);
    assert!(out.params.iter().all(|v| v.is_finite()));

    let acc_unlearned = accuracy(&bt.params, &w.test);
    let acc_recovered = accuracy(&out.params, &w.test);
    assert!(
        acc_recovered >= acc_unlearned,
        "recovery should not hurt: {acc_unlearned} -> {acc_recovered}"
    );
}

#[test]
fn pipeline_is_fully_deterministic() {
    let run = |seed| {
        let w = train_world(seed, 4, 10, 3);
        recover_one(&w.server, 3, &RecoveryConfig::new(0.01))
            .expect("recover")
            .params
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn history_savings_exceed_ninety_percent() {
    let w = train_world(2, 4, 8, 3);
    let h = w.server.history();
    assert!(h.gradient_savings_ratio() > 0.9);
    assert!(h.direction_bytes() > 0);
    assert_eq!(
        h.full_gradient_bytes_equivalent(),
        w.server.full_store().bytes(),
        "full store and the equivalent accounting must agree"
    );
}

#[test]
fn forgetting_nonexistent_client_fails_cleanly() {
    let w = train_world(3, 4, 8, 3);
    assert_eq!(
        backtrack_set(w.server.history(), &[99]).unwrap_err(),
        UnlearnError::UnknownClient(99)
    );
}

#[test]
fn recovered_model_differs_from_original_and_unlearned() {
    let w = train_world(4, 5, 15, 4);
    let bt = backtrack_set(w.server.history(), &[4]).unwrap();
    let out = recover_one(&w.server, 4, &RecoveryConfig::new(0.005)).unwrap();
    let d_unlearned = fuiov::eval::model_distance(&out.params, &bt.params);
    let d_original = fuiov::eval::model_distance(&out.params, w.server.params());
    assert!(d_unlearned > 1e-6, "recovery must move the model");
    assert!(
        d_original > 1e-6,
        "forgotten client's influence must be gone"
    );
}

#[test]
fn set_unlearning_backtracks_to_earliest_join() {
    let w = train_world(5, 5, 12, 4);
    let history = w.server.history();
    // Client 4 joined at 2, others at 0 → set {0, 4} backtracks to 0.
    let bt = backtrack_set(history, &[0, 4]).unwrap();
    assert_eq!(bt.join_round, 0);
    // Single client 4 → round 2.
    let bt4 = backtrack_set(history, &[4]).unwrap();
    assert_eq!(bt4.join_round, 2);
}
