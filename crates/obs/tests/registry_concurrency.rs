//! Registry semantics under the workspace's real worker pool: concurrent
//! increments from `fuiov_tensor::pool` workers must sum deterministically
//! (integer atomics are order-free), and a metric touched first by many
//! threads at once must register exactly once.

use fuiov_obs::{counter, histogram, RunReport, Snapshot};

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
fn run_report_renders_all_formats() {
    let _g = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    counter!("obs_test.report.touch").inc();
    let report = RunReport::capture();
    assert!(report.to_string().contains("obs_test.report.touch"));
    assert!(report.to_prometheus().contains("obs_test_report_touch"));
}

#[test]
fn concurrent_first_touch_registers_exactly_once() {
    let _g = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    // Hammer a fresh metric's first touch from many threads: the metric
    // must be appended to the registry exactly once, so the snapshot sees
    // the full total (a double registration would double-count it).
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
