//! A job-log record can pass its FNV check and still carry a length field
//! that claims gigabytes. Resuming from such a record must fail typed —
//! count a checkpoint decode failure, start the job fresh and finish
//! bitwise equal to a run without a log — and must never ask the
//! allocator for the claimed size first.
//!
//! This binary installs a global allocator that records the largest
//! request it ever sees and refuses any request above [`BOUND`], so a
//! decoder that sizes a buffer from an unchecked length aborts the run
//! instead of passing.

use fuiov_core::jobs::{JobConfig, JobLog, JobService};
use fuiov_core::{NoOracle, RecoveryConfig};
use fuiov_storage::{segment, HistoryStore};
use fuiov_tensor::vector;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single allocation the resume path may request.
const BOUND: usize = 64 << 20;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct BoundedAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, or returns null — which `GlobalAlloc` permits to signal an
// allocation failure — without touching memory.
unsafe impl GlobalAlloc for BoundedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > BOUND {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is what `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > BOUND {
            return std::ptr::null_mut();
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > BOUND {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: BoundedAlloc = BoundedAlloc;

const DIM: usize = 48;
const ROUNDS: usize = 14;
const CLIENTS: usize = 5;
/// Joins at round 3, so backtracking lands on F = 3.
const FORGOTTEN: usize = 2;

/// Sign-alternating federation (period 3), so pairs keep positive
/// curvature and the replay runs its stacked sweep.
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

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_ids(out: &mut Vec<u8>, ids: &[usize]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u64(out, id as u64);
    }
}

/// A checkpoint payload (state version 2) whose fixed header and
/// forgotten set match a `submit(&h, &[FORGOTTEN])` job, so the service
/// adopts it, followed by `tail`.
fn payload(tail: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&2u16.to_le_bytes());
    for x in [3u64, ROUNDS as u64, 5, 0, 0] {
        put_u64(&mut p, x); // F, T, next round, fallbacks, oracle queries
    }
    put_u32(&mut p, 0); // prev ‖w̄ − w‖ bits
    put_u64(&mut p, 0); // growth run
    p.push(0); // stack clean
    put_u64(&mut p, 0); // stack fingerprint
    put_ids(&mut p, &[FORGOTTEN]);
    put_ids(&mut p, &[0, 1, 3, 4]);
    tail(&mut p);
    p
}

/// `DIM` zero parameters and no update norms: a well-formed prefix up to
/// the pair buffers.
fn params_and_norms(p: &mut Vec<u8>) {
    put_u32(p, DIM as u32);
    p.extend(std::iter::repeat_n(0u8, DIM * 4));
    put_u32(p, 0);
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn oversized_length_fields_fail_typed_without_allocating_for_them() {
    let _lock = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    let h = history();
    let cfg =
        JobConfig::new(RecoveryConfig::new(0.05).pair_refresh_interval(3)).checkpoint_interval(2);

    let mut plain = JobService::new(cfg);
    let id = plain.submit(&h, &[FORGOTTEN]);
    plain.run_to_completion(&mut NoOracle);
    let reference = plain.take_outcome(id).expect("finished").expect("ok");

    // Three sealed records for job 0, each with one length field that
    // claims about 4 Gi elements: the parameter vector, a pair buffer's
    // capacity, and an approximation's pair count.
    let records = [
        payload(|p| put_u32(p, u32::MAX)),
        payload(|p| {
            params_and_norms(p);
            put_u32(p, 1); // one pair buffer
            put_u64(p, 0); // client 0
            put_u32(p, u32::MAX); // capacity
            put_u32(p, 0); // pairs held
        }),
        payload(|p| {
            params_and_norms(p);
            put_u32(p, 0); // no pair buffers
            put_u32(p, 1); // one approximation
            put_u64(p, 0); // client 0
            put_u32(p, u32::MAX); // pair count
        }),
    ];
    let path = std::env::temp_dir().join(format!("fuiov-alloc-bound-{}.seg", std::process::id()));
    let bytes: Vec<u8> = records
        .iter()
        .flat_map(|p| segment::encode_job_checkpoint(0, 5, p))
        .collect();
    std::fs::write(&path, bytes).expect("write job log");
    let (log, logged) = JobLog::open(&path).expect("open job log");
    assert_eq!(logged.len(), 3, "every record passes its FNV check");

    let before = fuiov_obs::Snapshot::capture();
    let mut svc = JobService::with_log(cfg, log, logged);
    let id = svc.submit(&h, &[FORGOTTEN]);
    assert_eq!(id, 0, "the logged job is adopted");
    svc.run_to_completion(&mut NoOracle);
    let resumed = svc.take_outcome(id).expect("finished").expect("ok");
    let window = fuiov_obs::Snapshot::capture().delta(&before);
    drop(svc);
    std::fs::remove_file(&path).ok();

    assert_eq!(window.counter("jobs.checkpoint_decode_failures"), 3);
    assert_eq!(window.counter("jobs.resumed"), 0);
    assert_eq!(window.counter("jobs.started"), 1);
    assert_eq!(bits(&resumed.params), bits(&reference.params));
    assert_eq!(bits(&resumed.update_norms), bits(&reference.update_norms));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= BOUND,
        "largest allocation request {largest} B exceeds {BOUND} B"
    );
}
