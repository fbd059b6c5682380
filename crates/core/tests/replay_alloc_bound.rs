//! What the replay allocates for its L-BFGS pairs, at d = 4,099.
//!
//! The recovery loop keeps every remaining client's vector pairs for the
//! whole replay, so they should be held once: the stack that serves the
//! fused sweep indexes the pairs' own rows instead of copying them, each
//! pushed pair writes its `ΔG` row into one allocation, and the rows a
//! pair refresh evicts are freed during that round.
//!
//! This binary installs a global allocator that, on the thread that arms
//! it, counts allocations of at least one model row (`4d` bytes), records
//! the largest request, and tracks live bytes and their peak. The replay
//! runs at pool width 1, so all of its work happens on the armed thread.

use fuiov_core::{recover_set, LbfgsApprox, NoOracle, PairBuffer, RecoveryConfig, StackedLbfgs};
use fuiov_storage::{ClientId, HistoryStore};
use fuiov_tensor::{pool, vector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

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

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations of at least `ROW` bytes while armed.
    static ROWS_MADE: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed while armed, and its maximum.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Records an allocation of `size` bytes replacing `freed` bytes.
fn observe(size: usize, freed: usize) {
    if !ARMED.with(Cell::get) {
        return;
    }
    if size >= ROW {
        ROWS_MADE.with(|n| n.set(n.get() + 1));
    }
    LARGEST.with(|l| l.set(l.get().max(size)));
    LIVE.with(|live| {
        let now = live.get() + size as isize - freed as isize;
        live.set(now);
        PEAK.with(|p| p.set(p.get().max(now)));
    });
}

fn observe_free(size: usize) {
    if ARMED.with(Cell::get) {
        LIVE.with(|live| live.set(live.get() - size as isize));
    }
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only updates this thread's counters, which allocate
// nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        observe(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is what `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        observe(layout.size(), 0);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        observe_free(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        observe(new_size, layout.size());
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What one armed stretch of this thread allocated.
#[derive(Debug, Clone, Copy)]
struct Probe {
    rows_made: usize,
    largest: usize,
    peak_bytes: isize,
}

/// Runs `f` with the probe armed on this thread.
fn probed<T>(f: impl FnOnce() -> T) -> (T, Probe) {
    reset();
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, read())
}

fn reset() {
    ROWS_MADE.with(|n| n.set(0));
    LARGEST.with(|l| l.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
}

fn read() -> Probe {
    Probe {
        rows_made: ROWS_MADE.with(Cell::get),
        largest: LARGEST.with(Cell::get),
        peak_bytes: PEAK.with(Cell::get),
    }
}

/// The tests share the pool width and the obs counters.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    pool::set_threads(1);
    fuiov_obs::set_enabled(true);
    guard
}

/// A federation whose gradient signs alternate with period 3 per
/// coordinate, so the stored directions keep changing and the seeded and
/// refreshed pairs have positive curvature: every remaining client holds
/// an approximation, and every refresh pushes a pair for each of them.
/// The store is resident, so replay reads borrow and allocate nothing.
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

fn config() -> RecoveryConfig {
    RecoveryConfig::new(0.05)
        .buffer_size(PAIRS)
        .pair_refresh_interval(REFRESH_INTERVAL)
}

fn pair_refreshes() -> u64 {
    fuiov_obs::Snapshot::capture().counter("core.pair_refreshes")
}

/// Approximations over shared rows, as the replay builds them: client
/// `k` takes both pairs' `ΔW` from two shared rows and its `ΔG` rows of
/// its own.
fn shared_approximations(clients: usize) -> Vec<LbfgsApprox> {
    let dw: Vec<Arc<[f32]>> = (0..PAIRS)
        .map(|p| {
            (0..DIM)
                .map(|j| ((j * 7 + p * 3) % 19) as f32 * 0.1 - 0.9)
                .collect()
        })
        .collect();
    (0..clients)
        .map(|k| {
            let mut buf = PairBuffer::new(PAIRS);
            for row in &dw {
                let dg: Arc<[f32]> = row
                    .iter()
                    .enumerate()
                    .map(|(j, x)| x * (1.5 + ((j + k) % 3) as f32))
                    .collect();
                buf.push(Arc::clone(row), dg);
            }
            buf.approximation().expect("positive curvature")
        })
        .collect()
}

#[test]
fn stacking_copies_no_row() {
    let _g = serial();
    let approxes = shared_approximations(8);
    let (mut stacked, build) = probed(|| StackedLbfgs::build(DIM, approxes.iter().enumerate()));
    assert_eq!(stacked.total_columns(), 8 * PAIRS + PAIRS);
    let (_, rebuild) = probed(|| {
        stacked.rebuild(approxes.iter().enumerate().skip(3));
    });
    assert_eq!(stacked.total_columns(), 5 * PAIRS + PAIRS);
    for (what, probe) in [("build", build), ("rebuild", rebuild)] {
        assert_eq!(
            probe.rows_made, 0,
            "{what} asked for up to {} B, a model row is {ROW} B",
            probe.largest
        );
    }
}

#[test]
fn replay_heap_peak_holds_the_pairs_once() {
    let _g = serial();
    let h = history();
    let cfg = config();
    // Warm-up: one-time allocations (metric registration) are not the
    // replay's.
    recover_set(&h, &[FORGOTTEN], &cfg, &mut NoOracle, |_, _| {}).expect("recovers");
    let (out, probe) = probed(|| recover_set(&h, &[FORGOTTEN], &cfg, &mut NoOracle, |_, _| {}));
    out.expect("recovers");
    // At most `s` ΔG rows per remaining client are live at once, plus the
    // ΔW rows: the `s` the buffers hold and the refresh round's new one.
    let pair_rows = (CLIENTS - 1) * PAIRS;
    let dw_rows = PAIRS + 1;
    // The replay's own rows: the recovered model, w̄ₜ − wₜ, the estimate
    // block (four rows at pool width 1), the f64 FedAvg accumulator (two
    // rows' bytes), the aggregate, the refresh's decoded direction, the
    // ΔG row being built, and two rows of slack for small allocations
    // (roster, middle factorisations, the stack's index).
    let scratch_rows = 1 + 1 + 4 + 2 + 1 + 1 + 1 + 2;
    let bound = (pair_rows + dw_rows + scratch_rows) * ROW;
    assert!(
        probe.peak_bytes <= bound as isize,
        "replay heap peak {} B ({:.1} rows) exceeds {bound} B ({} rows)",
        probe.peak_bytes,
        probe.peak_bytes as f64 / ROW as f64,
        bound / ROW
    );
}

#[test]
fn each_pushed_pair_allocates_one_row() {
    let _g = serial();
    let h = history();
    let cfg = config();
    recover_set(&h, &[FORGOTTEN], &cfg, &mut NoOracle, |_, _| {}).expect("recovers");

    // Per replayed round: rows made and pairs pushed. The probe is
    // disarmed while the callback reads the counters.
    let mut rounds: Vec<(usize, usize, u64)> = Vec::new();
    let mut pushed = pair_refreshes();
    reset();
    ARMED.with(|a| a.set(true));
    let out = recover_set(&h, &[FORGOTTEN], &cfg, &mut NoOracle, |t, _| {
        ARMED.with(|a| a.set(false));
        let now = pair_refreshes();
        rounds.push((t, ROWS_MADE.with(Cell::get), now - pushed));
        pushed = now;
        ROWS_MADE.with(|n| n.set(0));
        ARMED.with(|a| a.set(true));
    });
    ARMED.with(|a| a.set(false));
    out.expect("recovers");
    assert_eq!(rounds.len(), ROUNDS - JOIN);

    // Seeding and the first round: each of the (CLIENTS − 1) · s seed
    // pairs writes its ΔG row once, each seed round's ΔW row is made
    // once, and the rest are the replay's own rows: the recovered model,
    // g_F and g_r decoded into reused buffers, w̄ₜ − wₜ, the estimate
    // block, the FedAvg accumulator and the aggregate.
    let (first, made, refreshed) = rounds[0];
    assert_eq!((first, refreshed), (JOIN, 0));
    let seed_pairs = (CLIENTS - 1) * PAIRS;
    let own_rows = 7;
    assert!(
        made <= seed_pairs + PAIRS + own_rows,
        "seeding made {made} rows for {seed_pairs} pairs"
    );

    // A refresh round pushes one pair per remaining client: one ΔG row
    // each, plus the round's one shared ΔW row. The first refresh round
    // also sizes the buffer the stored direction decodes into. Every
    // other round makes no row, the stack rebuild included.
    let mut refresh_rounds = 0;
    for &(t, made, refreshed) in &rounds[1..] {
        if !(t - JOIN + 1).is_multiple_of(REFRESH_INTERVAL) {
            assert_eq!((made, refreshed), (0, 0), "round {t}");
            continue;
        }
        assert_eq!(refreshed as usize, CLIENTS - 1, "round {t}");
        let decode_buffer = usize::from(refresh_rounds == 0);
        assert_eq!(
            made,
            refreshed as usize + 1 + decode_buffer,
            "round {t}: {made} rows for {refreshed} pushed pairs"
        );
        refresh_rounds += 1;
    }
    assert_eq!(refresh_rounds, (ROUNDS - JOIN) / REFRESH_INTERVAL);
}
