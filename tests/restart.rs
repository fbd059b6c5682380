//! Integration test: the server-restart story. The RSU writes its
//! history file, restarts (decode), and serves an unlearning request from the
//! restored record — producing bit-identical results to the live path.

use fuiov::data::{partition::partition_iid, Dataset, DigitStyle};
use fuiov::fl::mobility::{ChurnSchedule, Membership};
use fuiov::fl::{Client, FlConfig, HonestClient, Server};
use fuiov::nn::ModelSpec;
use fuiov::storage::segment::{decode_history, encode_history};
use fuiov::unlearn::{recover_set, JobConfig, JobLog, JobService, NoOracle, RecoveryConfig};

const SPEC: ModelSpec = ModelSpec::Mlp {
    inputs: 144,
    hidden: 16,
    classes: 10,
};

fn trained_server(seed: u64) -> Server {
    let n = 4;
    let rounds = 12;
    let data = Dataset::digits(n * 20, &DigitStyle::small(), seed);
    let parts = partition_iid(data.len(), n, seed);
    let mut clients: Vec<Box<dyn Client>> = parts
        .into_iter()
        .enumerate()
        .map(|(id, idx)| {
            Box::new(HonestClient::new(id, SPEC, data.subset(&idx), 20, seed)) as Box<dyn Client>
        })
        .collect();
    let mut schedule = ChurnSchedule::static_membership(n, rounds);
    schedule.set_membership(
        3,
        Membership {
            joined: 2,
            leaves_after: None,
            dropouts: vec![],
        },
    );
    let mut server = Server::new(
        FlConfig::new(rounds, 0.1)
            .batch_size(20)
            .parallel_clients(false),
        SPEC.build(seed).params(),
    );
    server.train(&mut clients, &schedule);
    server
}

#[test]
fn recovery_from_restored_history_is_bit_identical() {
    let server = trained_server(31);
    let live_history = server.history();

    let blob = encode_history(live_history).expect("live history encodes");
    let restored = decode_history(&blob).expect("own encoding decodes");

    let cfg = RecoveryConfig::new(0.01);
    let live =
        recover_set(live_history, &[3], &cfg, &mut NoOracle, |_, _| {}).expect("live recovery");
    let cold =
        recover_set(&restored, &[3], &cfg, &mut NoOracle, |_, _| {}).expect("restored recovery");

    assert_eq!(live.params, cold.params, "restart must not change recovery");
    assert_eq!(live.start_round, cold.start_round);
    assert_eq!(live.rounds_replayed, cold.rounds_replayed);
}

/// The full RSU restart story through the job service: a forget of
/// vehicle 3 is submitted, the recovery job checkpoints to an on-disk log,
/// the RSU dies mid-replay, and the restarted process — restored history
/// blob plus reopened job log — resumes to the exact bits the live
/// uninterrupted path produces.
#[test]
fn job_service_resumes_across_a_server_restart_bit_identically() {
    let server = trained_server(34);
    let cfg = RecoveryConfig::new(0.01);
    let live =
        recover_set(server.history(), &[3], &cfg, &mut NoOracle, |_, _| {}).expect("live recovery");

    let blob = encode_history(server.history()).expect("live history encodes");
    let log_path =
        std::env::temp_dir().join(format!("fuiov-restart-joblog-{}.seg", std::process::id()));
    let _ = std::fs::remove_file(&log_path);

    // First process: submit the forget, replay a few rounds, crash.
    {
        let (log, logged) = JobLog::open(&log_path).expect("fresh log");
        assert!(logged.is_empty());
        let mut svc = JobService::with_log(JobConfig::new(cfg).checkpoint_interval(2), log, logged);
        svc.submit(server.history(), &[3]);
        for _ in 0..4 {
            svc.step(&mut NoOracle);
        }
    } // crash: service dropped, only the log file and blob survive

    // Restarted process: restored history + reopened log, resume to done.
    let restored = decode_history(&blob).expect("own encoding decodes");
    let (log, logged) = JobLog::open(&log_path).expect("reopen log");
    assert!(!logged.is_empty(), "crash must leave sealed checkpoints");
    let mut svc = JobService::with_log(JobConfig::new(cfg).checkpoint_interval(2), log, logged);
    let id = svc.submit(&restored, &[3]);
    svc.run_to_completion(&mut NoOracle);
    let resumed = svc
        .take_outcome(id)
        .expect("job finished")
        .expect("job succeeded");

    assert_eq!(
        live.params, resumed.params,
        "restart through the job log must not change recovery"
    );
    assert_eq!(live.rounds_replayed, resumed.rounds_replayed);
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn blob_keeps_the_storage_savings() {
    let server = trained_server(32);
    let h = server.history();
    let blob = encode_history(h).expect("live history encodes");
    // The file's gradient records stay 2-bit packed: total size is
    // dominated by the f32 models, and is far below what full-f32
    // gradients would need.
    let full_equiv = h.full_gradient_bytes_equivalent() + h.model_bytes();
    assert!(
        blob.len() < full_equiv / 2,
        "blob {} B vs full-precision equivalent {} B",
        blob.len(),
        full_equiv
    );
}

#[test]
fn restored_history_preserves_churn_metadata() {
    let server = trained_server(33);
    let h = server.history();
    let restored = decode_history(&encode_history(h).unwrap()).unwrap();
    assert_eq!(restored.join_round(3), Some(2));
    assert_eq!(restored.clients(), h.clients());
    for c in h.clients() {
        assert_eq!(restored.weight(c), h.weight(c));
    }
    assert_eq!(
        restored.gradient_savings_ratio(),
        h.gradient_savings_ratio()
    );
}
