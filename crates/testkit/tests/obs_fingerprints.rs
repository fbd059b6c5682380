//! Obs counters as a second-channel oracle for the fault matrix: an
//! injected fault must leave a machine-readable fingerprint in the metric
//! registry, not just a typed error on the direct call path. A fault class
//! whose counter stays flat is a fault the operator cannot see in a run
//! report.

use fuiov_core::jobs::{JobConfig, JobService};
use fuiov_core::{NoOracle, RecoveryConfig};
use fuiov_obs::Snapshot;
use fuiov_storage::HistoryStore;
use fuiov_testkit::{CanonicalRun, Corruptor, FaultPlan, FaultSpec};
use std::sync::Arc;

fn seeds() -> Vec<u64> {
    match std::env::var("FUIOV_FAULT_SEED") {
        Ok(s) => vec![s.trim().parse().expect("FUIOV_FAULT_SEED must be a u64")],
        Err(_) => vec![11, 29],
    }
}

fn plan_for(scenario: &CanonicalRun, seed: u64) -> Arc<FaultPlan> {
    let dim = scenario.initial_params().len();
    let spec = FaultSpec::small(scenario.clients, scenario.rounds, dim);
    Arc::new(FaultPlan::sample(seed, &spec))
}

#[test]
fn trailer_flip_fingerprints_the_checksum_counter() {
    let _obs = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    let scenario = CanonicalRun::standard();
    let mut run = scenario.train();
    // Flip the FNV trailer of the first spilled model record.
    let flipped = run
        .history
        .rounds()
        .into_iter()
        .find(|&t| Corruptor::corrupt_spill_checksum(&mut run.history, t));
    let flipped = flipped.expect("canonical run must spill at least one model record");
    let before = Snapshot::capture();
    assert!(
        run.history.try_model(flipped).is_err(),
        "flipped trailer must fail decode"
    );
    // The lenient read path is the one that counts decode errors.
    assert!(run.history.model(flipped).is_none());
    let delta = Snapshot::capture().delta(&before);
    assert!(
        delta.counter("storage.segment_checksum_failures") > 0,
        "a trailer flip must fingerprint storage.segment_checksum_failures"
    );
    assert!(
        delta.counter("storage.decode_errors") > 0,
        "the decode-error counter must also move"
    );
}

/// The job service leaves a full counter trail: submissions, snapshot
/// isolation, starts, sealed checkpoints, preemption/resume cycles,
/// duplicate collapses, cross-job sweeps, and completions all move their
/// counters by exact, seed-independent amounts on this fixed scenario.
#[test]
fn job_lifecycle_fingerprints_the_jobs_counters() {
    let _obs = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);

    // Tiny synthetic federation: clients 1 and 2 join late so the two
    // jobs replay overlapping windows. Gradient signs alternate with a
    // period-3 round pattern — the 2-bit store keeps signs only, so
    // without per-round flips every L-BFGS pair would collapse to
    // `Δg = 0` and the stacked (batchable) sweep would never engage.
    let (dim, rounds) = (8usize, 10usize);
    let joins = [0usize, 2, 3, 0];
    let mut h = HistoryStore::new(1e-6);
    for (c, &join) in joins.iter().enumerate() {
        h.record_join(c, join);
    }
    let mut w = vec![0.0f32; dim];
    for t in 0..rounds {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        for (c, &join) in joins.iter().enumerate() {
            if t < join {
                continue;
            }
            let g: Vec<f32> = (0..dim)
                .map(|j| {
                    let sign = if (t + j) % 3 < 2 { 1.0f32 } else { -1.0 };
                    sign * (1.0 + 0.1 * c as f32 + 0.05 * j as f32)
                })
                .collect();
            h.record_gradient(t, c, &g);
            grads.push(g);
        }
        let n = grads.len() as f32;
        for j in 0..dim {
            w[j] -= 0.05 * grads.iter().map(|g| g[j]).sum::<f32>() / n;
        }
    }
    h.record_model(rounds, w);

    let before = Snapshot::capture();
    let mut svc = JobService::new(JobConfig::new(RecoveryConfig::new(0.05)).checkpoint_interval(2));
    // Both sets backtrack to client 1's join round, so the two jobs
    // replay the same rounds and the cross-job batched sweep engages.
    let a = svc.submit(&h, &[1]);
    let b = svc.submit(&h, &[1, 2]);
    assert_eq!(svc.submit(&h, &[1]), a, "duplicate must collapse");
    // One step activates both jobs (sealing the round-zero checkpoint),
    // then a preemption forces a resume on the next step.
    assert!(svc.step(&mut NoOracle));
    svc.preempt(a);
    svc.run_to_completion(&mut NoOracle);
    assert!(svc.take_outcome(a).expect("job a done").is_ok());
    assert!(svc.take_outcome(b).expect("job b done").is_ok());

    let delta = Snapshot::capture().delta(&before);
    assert_eq!(delta.counter("jobs.submitted"), 2, "two distinct jobs");
    assert_eq!(
        delta.counter("jobs.duplicates"),
        1,
        "one collapsed resubmit"
    );
    assert_eq!(
        delta.counter("storage.snapshots"),
        2,
        "one snapshot per job"
    );
    assert_eq!(delta.counter("jobs.started"), 2, "both jobs started fresh");
    assert_eq!(delta.counter("jobs.preempted"), 1, "one preemption");
    assert_eq!(delta.counter("jobs.resumed"), 1, "preempted job resumed");
    assert_eq!(delta.counter("jobs.completed"), 2, "both jobs finished");
    assert_eq!(delta.counter("jobs.failed"), 0, "no job may fail");
    assert!(
        delta.counter("jobs.checkpoints_sealed") >= 4,
        "round-zero seals plus interval seals must be recorded"
    );
    assert!(
        delta.counter("jobs.cross_job_sweeps") > 0,
        "overlapping replay rounds must batch the stacked sweep"
    );
}

#[test]
fn fault_matrix_runs_leave_counter_fingerprints() {
    let _obs = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    let scenario = CanonicalRun::standard();
    for seed in seeds() {
        let plan = plan_for(&scenario, seed);
        let before = Snapshot::capture();
        let mut run = scenario.train_faulted(&plan);
        let delta = Snapshot::capture().delta(&before);
        // Training under any plan drives the fl round/byte counters.
        assert!(
            delta.counter("fl.rounds") >= scenario.rounds as u64,
            "seed {seed}: every training round must be counted"
        );
        assert!(
            delta.counter("fl.upload_bytes_sign") > 0,
            "seed {seed}: comms accounting flat"
        );
        // Scheduled dropouts that the plan injects show up as fl.dropouts
        // (a dropout for a vehicle that is not in range never gets polled,
        // so only scheduled ones can leave a fingerprint).
        let scheduled = |client: usize, round: usize| {
            client != scenario.forgotten || round >= scenario.forgotten_joins
        };
        let injected_dropouts = plan
            .faults()
            .iter()
            .filter(|f| match **f {
                fuiov_testkit::Fault::Dropout { client, round } => scheduled(client, round),
                _ => false,
            })
            .count();
        if injected_dropouts > 0 {
            assert!(
                delta.counter("fl.dropouts") > 0,
                "seed {seed}: {injected_dropouts} dropouts injected but counter flat"
            );
        }
        // Segment faults that land must fingerprint the storage counters
        // once the damaged rounds are read back.
        let before = Snapshot::capture();
        let landed = Corruptor::apply_segment_faults(&mut run.history, &plan);
        for t in run.history.rounds() {
            let _ = run.history.model(t);
        }
        let delta = Snapshot::capture().delta(&before);
        if landed > 0 {
            assert!(
                delta.counter("storage.decode_errors") > 0,
                "seed {seed}: {landed} segment faults landed but storage.decode_errors is flat"
            );
        }
        // Recovery (typed error or success) drives the core counters.
        let before = Snapshot::capture();
        if scenario.recover_forgotten(&run.history, |_, _| {}).is_ok() {
            let delta = Snapshot::capture().delta(&before);
            assert!(
                delta.counter("core.replay_rounds") > 0,
                "seed {seed}: successful recovery must count replay rounds"
            );
        }
    }
}

/// A server reducing through a fan-out-2 tree and sampling half its
/// vehicles leaves exact counter fingerprints: every tree node reduced,
/// every vehicle the sampler left out, and every tier byte of every
/// tree-reduced round, each equal to what the pure tree, predicate and
/// byte model say.
#[test]
fn tree_and_sampling_fingerprint_the_hierarchy_counters() {
    use fuiov_fl::comms::tree_round_bytes;
    use fuiov_fl::hierarchy::sampled;
    use fuiov_fl::mobility::ChurnSchedule;
    use fuiov_fl::{AggregationTree, Client, FlConfig, Server};

    /// A vehicle whose gradient is a fixed function of its id, the round
    /// and the model: no data, no network.
    struct Probe(usize);
    impl Client for Probe {
        fn id(&self) -> usize {
            self.0
        }
        fn weight(&self) -> f32 {
            1.0 + 0.25 * (self.0 % 4) as f32
        }
        fn gradient(&mut self, params: &[f32], round: usize) -> Vec<f32> {
            (0..params.len())
                .map(|j| params[j] - ((self.0 + j + round) % 3) as f32 + 1.0)
                .collect()
        }
    }

    let _obs = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    let (n, rounds, dim, seed, frac) = (16usize, 6usize, 8usize, 9u64, 0.5);
    let mut clients: Vec<Box<dyn Client>> = (0..n)
        .map(|id| Box::new(Probe(id)) as Box<dyn Client>)
        .collect();
    let mut server = Server::new(
        FlConfig::new(rounds, 0.05).parallel_clients(false),
        vec![0.0; dim],
    )
    .with_tree_fanout(Some(2))
    .with_sample_frac(frac)
    .with_sampling_seed(seed);

    let before = Snapshot::capture();
    let schedule = ChurnSchedule::static_membership(n, rounds);
    server.train_with(&mut clients, &schedule, |_, _| {});
    let delta = Snapshot::capture().delta(&before);

    let (mut nodes, mut left_out) = (0u64, 0u64);
    let (mut up_sign, mut up_inter, mut down_inter) = (0u64, 0u64, 0u64);
    for t in 0..rounds {
        let kept = (0..n).filter(|&v| sampled(seed, t, v, frac)).count();
        assert_eq!(server.summaries()[t].participants.len(), kept, "round {t}");
        left_out += (n - kept) as u64;
        if kept == 0 {
            continue; // an empty round reduces nothing
        }
        let tree = AggregationTree::build(kept, 2);
        nodes += tree.node_count() as u64;
        let bytes = tree_round_bytes(dim, kept, &tree);
        up_sign += bytes.up_vehicle_sign as u64;
        up_inter += bytes.up_inter_full as u64;
        down_inter += bytes.down_inter as u64;
    }
    assert!(left_out > 0, "seed {seed} must sample somebody out");
    assert!(up_inter > 0, "some round must have inter-tier links");
    assert_eq!(delta.counter("hierarchy.nodes_reduced"), nodes);
    assert_eq!(delta.counter("hierarchy.sampled_out"), left_out);
    assert_eq!(delta.counter("hierarchy.up_vehicle_sign_bytes"), up_sign);
    assert_eq!(delta.counter("hierarchy.up_inter_tier_bytes"), up_inter);
    assert_eq!(delta.counter("hierarchy.down_inter_tier_bytes"), down_inter);
}
