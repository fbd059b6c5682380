//! Registry semantics under the workspace's real worker pool: concurrent
//! increments from `fuiov_tensor::pool` workers must sum deterministically
//! (integer atomics are order-free), and a captured snapshot must survive
//! the JSON-lines wire format bit-for-bit.

use fuiov_obs::{counter, export, histogram, journal, RunReport, Snapshot};

#[test]
fn pool_workers_sum_deterministically() {
    let _g = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    let c = counter!("obs_test.pool.increments");
    let h = histogram!("obs_test.pool.values");

    let items: Vec<u64> = (0..1024).collect();
    let expected_sum: u64 = items.iter().sum();

    let mut last: Option<(u64, u64, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let before = Snapshot::capture();
        fuiov_tensor::pool::set_threads(threads);
        // Every worker records into the same statics from its own band.
        let _ = fuiov_tensor::pool::par_map(&items, 1, |_, &v| {
            c.inc();
            h.observe(v);
        });
        fuiov_tensor::pool::set_threads(0);
        let delta = Snapshot::capture().delta(&before);
        let got = (
            delta.counter("obs_test.pool.increments"),
            delta.histogram("obs_test.pool.values").unwrap().count,
            delta.histogram("obs_test.pool.values").unwrap().sum,
        );
        assert_eq!(
            got,
            (items.len() as u64, items.len() as u64, expected_sum),
            "threads={threads}: totals must not depend on interleaving"
        );
        if let Some(prev) = last {
            assert_eq!(prev, got, "threads={threads} diverged from previous width");
        }
        last = Some(got);
    }
}

#[test]
fn captured_snapshot_round_trips_through_jsonl() {
    let _g = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    counter!("obs_test.roundtrip.counter").add(17);
    histogram!("obs_test.roundtrip.hist").observe_scaled(1.5);
    histogram!("obs_test.roundtrip.hist").observe_scaled(0.25);
    let snap = Snapshot::capture();
    let wire = export::to_jsonl(&snap);
    let parsed = export::parse_jsonl(&wire).expect("own emission must parse");
    assert_eq!(
        parsed, snap,
        "snapshot must survive the JSON-lines round trip"
    );
    // And the re-emission is byte-stable (canonical ordering).
    assert_eq!(export::to_jsonl(&parsed), wire);
}

#[test]
fn run_report_renders_all_formats() {
    let _g = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    counter!("obs_test.report.touch").inc();
    journal::begin("obs_test.report.span", 1);
    journal::end("obs_test.report.span", 1, 2);
    let report = RunReport::capture();
    assert!(report.to_string().contains("obs_test.report.touch"));
    assert!(report.to_jsonl().contains("obs_test.report.touch"));
    assert!(report.to_prometheus().contains("obs_test_report_touch"));
    assert!(report.journal_len >= 2);
}

#[test]
fn concurrent_first_touch_registers_exactly_once() {
    let _g = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    // Hammer a fresh metric's first touch from many threads: the Treiber
    // push must happen exactly once, so the snapshot sees the full total
    // (a double registration would double-count it).
    let c = counter!("obs_test.race.first_touch");
    crossbeam::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|_| {
                for _ in 0..1000 {
                    c.inc();
                }
            });
        }
    })
    .unwrap();
    assert_eq!(
        Snapshot::capture().counter("obs_test.race.first_touch"),
        8000
    );
}

#[test]
fn jsonl_rejects_a_counter_sum_that_overflows() {
    let line = format!(r#"{{"type":"counter","name":"a","value":{}}}"#, u64::MAX);
    let one = r#"{"type":"counter","name":"a","value":1}"#;
    assert_eq!(export::parse_jsonl(&line).unwrap().counters["a"], u64::MAX);
    for text in [format!("{line}\n{line}\n"), format!("{line}\n{one}\n")] {
        let err = export::parse_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("overflow"), "{err}");
    }
}
