//! A job-log record can pass its FNV check, decode field by field and
//! rebuild its stack to the sealed fingerprint, and still name rounds that
//! make no sense: a next round before `F` or at or past `T`, or a
//! replayed-round count that disagrees with its update norms. Resuming
//! from such a record must fail typed — count a checkpoint decode failure,
//! start the job fresh and finish bitwise equal to a run without a log —
//! instead of replaying rounds outside the window. The same holds for a
//! record whose tail names a replay scope or sibling reuses: jobs always
//! replay unscoped, so no job sealed it.

use fuiov_core::jobs::{JobConfig, JobLog, JobService};
use fuiov_core::{NoOracle, RecoveryConfig, RecoveryOutcome};
use fuiov_storage::{segment, HistoryStore};
use fuiov_tensor::vector;

const DIM: usize = 40;
const ROUNDS: usize = 14;
const CLIENTS: usize = 5;
/// Joins at round 3, so backtracking lands on F = 3.
const FORGOTTEN: usize = 2;
const F: u64 = 3;

/// Sign-alternating federation (period 3), so pairs keep positive
/// curvature and the sealed states carry a live stack.
fn history() -> HistoryStore {
    let mut h = HistoryStore::new(1e-6);
    for c in 0..CLIENTS {
        h.record_join(c, if c == FORGOTTEN { 3 } else { 0 });
    }
    let mut w: Vec<f32> = (0..DIM).map(|j| 0.2 * (j as f32 + 1.0)).collect();
    for t in 0..ROUNDS {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        for c in 0..CLIENTS {
            if c == FORGOTTEN && t < 3 {
                continue;
            }
            let g: Vec<f32> = (0..DIM)
                .map(|j| {
                    let sign = if (t + j) % 3 < 2 { 1.0f32 } else { -1.0 };
                    sign * (1.0 + 0.1 * c as f32 + 0.05 * j as f32)
                })
                .collect();
            h.record_gradient(t, c, &g);
            grads.push(g);
        }
        let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
        let agg = vector::weighted_mean(&refs, &vec![1.0; refs.len()]);
        vector::axpy(-0.05, &agg, &mut w);
    }
    h.record_model(ROUNDS, w);
    h
}

fn config() -> JobConfig {
    JobConfig::new(RecoveryConfig::new(0.05).pair_refresh_interval(3)).checkpoint_interval(2)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn run(svc: &mut JobService, h: &HistoryStore) -> RecoveryOutcome {
    let id = svc.submit(h, &[FORGOTTEN]);
    assert_eq!(id, 0, "the logged job is adopted");
    svc.run_to_completion(&mut NoOracle);
    svc.take_outcome(id).expect("finished").expect("ok")
}

/// Overwrites the payload's `(F, T, next round)` header fields, which
/// follow the 2-byte state version.
fn with_rounds(payload: &[u8], f: u64, t: u64, next: u64) -> Vec<u8> {
    let mut p = payload.to_vec();
    for (at, x) in [(2, f), (10, t), (18, next)] {
        p[at..at + 8].copy_from_slice(&x.to_le_bytes());
    }
    p
}

/// A real sealed state two rounds in: its norms cover rounds F, F + 1.
fn sealed_two_rounds_in(h: &HistoryStore) -> Vec<u8> {
    let log = JobLog::temp().expect("temp log");
    let path = log.path().to_path_buf();
    let mut svc = JobService::with_log(config(), log, Vec::new());
    run(&mut svc, h);
    let (_reader, records) = JobLog::open(&path).expect("reopen log");
    let (_, next, payload) = records
        .into_iter()
        .find(|&(_, next, _)| next == F as usize + 2)
        .expect("a checkpoint two rounds in");
    assert_eq!(next, F as usize + 2);
    payload
}

/// Seals `payload` as the only record of a job log and resumes job 0
/// from it: the record passes its FNV check, yet the service must count
/// one decode failure, start the job fresh and finish bitwise equal to
/// the log-less `reference`.
fn assert_refused(label: &str, payload: &[u8], h: &HistoryStore, reference: &RecoveryOutcome) {
    let path = std::env::temp_dir().join(format!(
        "fuiov-checkpoint-rounds-{}.seg",
        std::process::id()
    ));
    let next = u64::from_le_bytes(payload[18..26].try_into().expect("8 bytes"));
    std::fs::write(
        &path,
        segment::encode_job_checkpoint(0, next as usize, payload),
    )
    .expect("write job log");
    let (log, logged) = JobLog::open(&path).expect("open job log");
    assert_eq!(logged.len(), 1, "{label}: the record passes its FNV check");

    let before = fuiov_obs::Snapshot::capture();
    let mut svc = JobService::with_log(config(), log, logged);
    let resumed = run(&mut svc, h);
    let window = fuiov_obs::Snapshot::capture().delta(&before);
    drop(svc);
    std::fs::remove_file(&path).ok();

    assert_eq!(
        window.counter("jobs.checkpoint_decode_failures"),
        1,
        "{label}"
    );
    assert_eq!(window.counter("jobs.resumed"), 0, "{label}");
    assert_eq!(window.counter("jobs.started"), 1, "{label}");
    assert_eq!(bits(&resumed.params), bits(&reference.params), "{label}");
    assert_eq!(
        bits(&resumed.update_norms),
        bits(&reference.update_norms),
        "{label}"
    );
    assert_eq!(
        resumed.rounds_replayed, reference.rounds_replayed,
        "{label}"
    );
}

#[test]
fn out_of_order_rounds_fail_typed_and_the_job_starts_fresh() {
    let _lock = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    let h = history();

    let mut plain = JobService::new(config());
    let reference = run(&mut plain, &h);

    let sealed = sealed_two_rounds_in(&h);
    let t = ROUNDS as u64;
    let bad = [
        ("next round before F", with_rounds(&sealed, F, t, F - 2)),
        ("next round at T", with_rounds(&sealed, F, t, t)),
        ("next round past T", with_rounds(&sealed, F, t, t + 6)),
        ("F after T", with_rounds(&sealed, t + 1, t, F + 2)),
        (
            "norms short of next round",
            with_rounds(&sealed, F, t, F + 3),
        ),
        ("norms past next round", with_rounds(&sealed, F, t, F + 1)),
    ];
    for (label, payload) in bad {
        assert_refused(label, &payload, &h, &reference);
    }

    // The untouched record resumes, as a control.
    let path = std::env::temp_dir().join(format!(
        "fuiov-checkpoint-rounds-ok-{}.seg",
        std::process::id()
    ));
    std::fs::write(
        &path,
        segment::encode_job_checkpoint(0, F as usize + 2, &sealed),
    )
    .expect("write job log");
    let (log, logged) = JobLog::open(&path).expect("open job log");
    let before = fuiov_obs::Snapshot::capture();
    let mut svc = JobService::with_log(config(), log, logged);
    let resumed = run(&mut svc, &h);
    let window = fuiov_obs::Snapshot::capture().delta(&before);
    drop(svc);
    std::fs::remove_file(&path).ok();
    assert_eq!(window.counter("jobs.checkpoint_decode_failures"), 0);
    assert_eq!(window.counter("jobs.resumed"), 1);
    assert_eq!(bits(&resumed.params), bits(&reference.params));
}

/// Jobs always replay unscoped, so the v2 tail a job seals is scope tag 0
/// and a zero sibling-reuse tally. A tail naming a scope (tag 1 and a
/// client list), or counting sibling reuses, was not sealed by a job: it
/// is refused like any other undecodable checkpoint, and the job starts
/// fresh.
#[test]
fn a_scoped_checkpoint_is_refused_and_the_job_starts_fresh() {
    let _lock = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    let h = history();

    let mut plain = JobService::new(config());
    let reference = run(&mut plain, &h);

    let sealed = sealed_two_rounds_in(&h);
    // The tail: one tag byte, then the sibling-reuse count.
    let (body, tail) = sealed.split_at(sealed.len() - 9);
    assert_eq!(tail, [0u8; 9], "a job seals tag 0 and no sibling reuses");

    let mut scoped = body.to_vec();
    scoped.push(1);
    scoped.extend_from_slice(&2u32.to_le_bytes());
    for client in [0u64, 4] {
        scoped.extend_from_slice(&client.to_le_bytes());
    }
    scoped.extend_from_slice(&0u64.to_le_bytes());
    assert_refused("scope tag 1", &scoped, &h, &reference);

    let mut reused = body.to_vec();
    reused.push(0);
    reused.extend_from_slice(&6u64.to_le_bytes());
    assert_refused("sibling reuses", &reused, &h, &reference);
}
