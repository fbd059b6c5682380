//! What sealing a job checkpoint allocates, at d = 4,099.
//!
//! A job service without a log keeps each job's checkpoint in memory as a
//! clone of its replay state that shares every pair row with the live
//! state, so a seal should cost the model, the update norms and some
//! bookkeeping per client: never a pair row, let alone a serialised
//! payload holding all of them.
//!
//! This binary installs a global allocator that, on the thread that arms
//! it, sums the bytes requested (a `realloc` counts what it grows by).
//! The same job runs twice, one step at a time, at pool width 1 so all of
//! its work happens on the armed thread: once sealing every `INTERVAL`
//! rounds and once sealing only the round-zero checkpoint at activation.
//! A step of the first run minus the same step of the second is what that
//! step's seal allocated.

use fuiov_core::jobs::{JobConfig, JobService};
use fuiov_core::{NoOracle, RecoveryConfig};
use fuiov_storage::{ClientId, HistoryStore};
use fuiov_tensor::{pool, vector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Model dimension: not a multiple of the 8-lane kernels' width.
const DIM: usize = 4_099;
/// Bytes of one model row.
const ROW: usize = DIM * 4;
/// Clients of the synthetic federation; `FORGOTTEN` joins at round 2.
const CLIENTS: usize = 10;
const FORGOTTEN: ClientId = 1;
const JOIN: usize = 2;
const ROUNDS: usize = 14;
/// The paper's pair buffer size `s`.
const PAIRS: usize = 2;
const REFRESH_INTERVAL: usize = 5;
/// Replayed rounds between seals in the sealing run. Of the 12 replayed
/// rounds, steps 2, 4, 6, 8 and 10 seal (step 12 finishes the job
/// instead). Step 10 also refreshes every client's pairs, so its seal
/// finds the stack dirty and rebuilds it, which the plain run does at
/// the start of step 11.
const INTERVAL: usize = 2;
/// Bytes a seal may allocate per client besides the model and the update
/// norms: the client's pair-buffer and approximation entries with their
/// handle deques and vectors, the approximation's middle-matrix factor,
/// its stack entry (row indices and factor) and handles, its roster,
/// weight and id slots, and the eager stack rebuild a seal does when a
/// refresh dirtied the stack. About 0.9 KiB is measured; a pair row
/// alone is 16 KiB.
const PER_CLIENT: usize = 2_048;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Bytes requested while armed.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn observe(bytes: usize) {
    if ARMED.with(Cell::get) {
        REQUESTED.with(|n| n.set(n.get() + bytes));
    }
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only updates this thread's counters, which allocate
// nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        observe(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is what `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        observe(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        observe(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A federation whose gradient signs alternate with period 3 per
/// coordinate, so every remaining client holds an approximation and every
/// refresh pushes a pair for each of them. The store is resident, so
/// replay reads borrow and allocate nothing.
fn history() -> HistoryStore {
    let mut h = HistoryStore::new(1e-6);
    for c in 0..CLIENTS {
        h.record_join(c, if c == FORGOTTEN { JOIN } else { 0 });
    }
    let mut w: Vec<f32> = (0..DIM).map(|j| 0.2 * ((j % 13) as f32 + 1.0)).collect();
    for t in 0..ROUNDS {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        for c in 0..CLIENTS {
            if c == FORGOTTEN && t < JOIN {
                continue;
            }
            let g: Vec<f32> = (0..DIM)
                .map(|j| {
                    let sign = if (t + j) % 3 < 2 { 1.0f32 } else { -1.0 };
                    sign * (1.0 + 0.1 * c as f32 + 0.05 * (j % 11) as f32)
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

/// Runs one job to completion under `checkpoint_interval`, returning the
/// bytes each step requested on this thread.
fn bytes_per_step(h: &HistoryStore, checkpoint_interval: usize) -> Vec<usize> {
    let recovery = RecoveryConfig::new(0.05)
        .buffer_size(PAIRS)
        .pair_refresh_interval(REFRESH_INTERVAL);
    let mut svc =
        JobService::new(JobConfig::new(recovery).checkpoint_interval(checkpoint_interval));
    let id = svc.submit(h, &[FORGOTTEN]);
    let mut steps = Vec::new();
    loop {
        REQUESTED.with(|n| n.set(0));
        ARMED.with(|a| a.set(true));
        let more = svc.step(&mut NoOracle);
        ARMED.with(|a| a.set(false));
        steps.push(REQUESTED.with(Cell::get));
        if !more {
            break;
        }
    }
    svc.take_outcome(id).expect("finished").expect("recovers");
    steps
}

#[test]
fn an_in_memory_seal_copies_no_pair_row() {
    pool::set_threads(1);
    // Collection stays off, so no metric's first-touch registration
    // lands in a measured step.
    fuiov_obs::set_enabled(false);
    let h = history();
    // Warm-up: one-time allocations are not the steps'.
    bytes_per_step(&h, INTERVAL);
    let sealing = bytes_per_step(&h, INTERVAL);
    let plain = bytes_per_step(&h, usize::MAX);
    assert_eq!(sealing.len(), ROUNDS - JOIN);
    assert_eq!(plain.len(), sealing.len());

    for (i, (&s, &p)) in sealing.iter().zip(&plain).enumerate() {
        let step = i + 1; // rounds replayed once the step is done
        let extra = s as isize - p as isize;
        if step.is_multiple_of(INTERVAL) && step < sealing.len() {
            // The seal clones the model, the `step` update norms and the
            // bookkeeping, and shares every pair row.
            let bound = ROW + 4 * step + CLIENTS * PER_CLIENT;
            assert!(
                extra >= ROW as isize && extra <= bound as isize,
                "the seal at step {step} allocated {extra} B more than a plain step \
                 ({:.2} rows); bound {bound} B, a pair row is {ROW} B",
                extra as f64 / ROW as f64
            );
        } else {
            assert!(
                extra <= 0,
                "step {step} does not seal, yet allocated {extra} B more than a plain step"
            );
        }
    }
}
