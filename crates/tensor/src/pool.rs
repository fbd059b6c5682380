//! Deterministic row-parallel execution for dense kernels.
//!
//! Every parallel kernel in this workspace follows one rule: a worker owns a
//! contiguous band of *output rows* and nothing else ever writes them. Each
//! output element is therefore produced by exactly one thread running exactly
//! the same per-element accumulation loop as the serial code, so results are
//! **bitwise identical** for every thread count (see DESIGN.md §5).
//!
//! Thread count resolution, first match wins:
//!
//! 1. [`set_threads`] (programmatic override, used by tests/benches),
//! 2. the `FUIOV_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A count of 1 runs the kernel inline on the caller's thread — no spawns,
//! no synchronisation — which is also the fallback whenever the work is too
//! small to amortise thread startup.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for subsequent kernels (`0` clears the
/// override and returns resolution to `FUIOV_THREADS` / hardware).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Resolved worker count (always ≥ 1).
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var("FUIOV_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Minimum per-worker share of output elements before spawning is worth it
/// (thread startup is ~tens of microseconds; below this, run serial).
const MIN_ELEMS_PER_WORKER: usize = 16 * 1024;

/// Splits `out` (a row-major `rows × cols` buffer) into contiguous row
/// bands and runs `body(row_range, band)` on each, in parallel when the
/// resolved thread count and the problem size justify it.
///
/// The spawn gate counts `rows × work_per_row` elements: a fused
/// dot-product pass writes `rows × 1` outputs while streaming `rows × dim`
/// inputs, so it passes `work_per_row = dim` and parallelises by the work
/// it actually does. Kernels whose cost is their output pass
/// `work_per_row = cols`.
///
/// `body` must write each output row as a pure function of the shared
/// inputs it captures — bands are disjoint, so any schedule produces the
/// same bytes.
///
/// # Panics
///
/// Panics if `out.len() != rows * cols` or a worker panics.
pub fn par_row_bands_weighted<F>(
    out: &mut [f32],
    rows: usize,
    cols: usize,
    work_per_row: usize,
    body: F,
) where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        rows * cols,
        "par_row_bands_weighted: buffer size mismatch"
    );
    let workers = threads()
        .min(rows)
        .min((rows * work_per_row) / MIN_ELEMS_PER_WORKER)
        .max(1);
    if workers == 1 {
        body(0..rows, out);
        return;
    }
    // Contiguous banding: worker i gets base(+1) rows, earliest workers take
    // the remainder. split_at_mut keeps the bands provably disjoint.
    let base = rows / workers;
    let rem = rows % workers;
    let mut bands = Vec::with_capacity(workers);
    let mut rest = out;
    let mut start = 0usize;
    for w in 0..workers {
        let nrows = base + usize::from(w < rem);
        let (band, tail) = rest.split_at_mut(nrows * cols);
        bands.push((start..start + nrows, band));
        rest = tail;
        start += nrows;
    }
    let body = &body;
    crossbeam::scope(|scope| {
        for (range, band) in bands {
            scope.spawn(move |_| body(range, band));
        }
    })
    .expect("par_row_bands_weighted: worker panicked");
}

/// Maps `f` over `items` in parallel, returning results **in input order**
/// regardless of which worker computed what — the property that makes
/// parallel per-client recovery aggregate identically to the serial loop.
///
/// `min_per_worker` gates spawning: workers are capped at
/// `items.len() / min_per_worker`, so small batches run inline. Pass 1 when
/// each item is already expensive (e.g. a full-model HVP).
///
/// # Panics
///
/// Panics if a worker panics.
pub fn par_map<T, R, F>(items: &[T], min_per_worker: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads().min(items.len() / min_per_worker.max(1)).max(1);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let results: std::sync::Mutex<Vec<(usize, Vec<R>)>> =
        std::sync::Mutex::new(Vec::with_capacity(workers));
    let base = items.len() / workers;
    let rem = items.len() % workers;
    let f = &f;
    let results_ref = &results;
    crossbeam::scope(|scope| {
        let mut start = 0usize;
        for w in 0..workers {
            let n = base + usize::from(w < rem);
            let band = start..start + n;
            start += n;
            scope.spawn(move |_| {
                let out: Vec<R> = band.clone().map(|i| f(i, &items[i])).collect();
                results_ref
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push((band.start, out));
            });
        }
    })
    .expect("par_map: worker panicked");
    let mut bands = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    bands.sort_by_key(|(s, _)| *s);
    bands.into_iter().flat_map(|(_, v)| v).collect()
}

/// Serialises tests that toggle the global thread override (the override
/// itself never changes output bytes, but assertions *about* it would race).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_path_covers_all_rows() {
        let _g = test_guard();
        set_threads(1);
        let mut out = vec![0.0f32; 6];
        par_row_bands_weighted(&mut out, 3, 2, 2, |range, band| {
            for (i, r) in range.enumerate() {
                band[i * 2] = r as f32;
                band[i * 2 + 1] = r as f32 + 0.5;
            }
        });
        set_threads(0);
        assert_eq!(out, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5]);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let _g = test_guard();
        let rows = 64;
        let cols = 1024; // big enough to clear MIN_ELEMS_PER_WORKER at 4 workers
        let fill = |range: Range<usize>, band: &mut [f32]| {
            for (i, r) in range.enumerate() {
                for c in 0..cols {
                    band[i * cols + c] = (r * 31 + c) as f32 * 0.001 - 3.0;
                }
            }
        };
        set_threads(1);
        let mut serial = vec![0.0f32; rows * cols];
        par_row_bands_weighted(&mut serial, rows, cols, cols, fill);
        set_threads(4);
        let mut parallel = vec![0.0f32; rows * cols];
        par_row_bands_weighted(&mut parallel, rows, cols, cols, fill);
        set_threads(0);
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn tiny_work_stays_serial() {
        let _g = test_guard();
        set_threads(8);
        let mut out = vec![0.0f32; 4];
        // Would split 2 rows over 8 workers if the size gate were missing.
        par_row_bands_weighted(&mut out, 2, 2, 2, |range, band| {
            for (i, _r) in range.enumerate() {
                band[i * 2] = 1.0;
                band[i * 2 + 1] = 2.0;
            }
        });
        set_threads(0);
        assert_eq!(out, vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn weighted_bands_match_serial_bitwise() {
        let _g = test_guard();
        // 64 single-column output rows, each "costing" 4096 elements: the
        // weighted gate allows multiple workers where counting outputs
        // would stay serial. Output must be bitwise identical either way.
        let rows = 64;
        let work = 4096;
        let fill = |range: Range<usize>, band: &mut [f32]| {
            for (i, r) in range.enumerate() {
                band[i] = (r * 37) as f32 * 0.125 - 2.0;
            }
        };
        set_threads(1);
        let mut serial = vec![0.0f32; rows];
        par_row_bands_weighted(&mut serial, rows, 1, work, fill);
        set_threads(4);
        let mut parallel = vec![0.0f32; rows];
        par_row_bands_weighted(&mut parallel, rows, 1, work, fill);
        set_threads(0);
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn par_map_preserves_input_order() {
        let _g = test_guard();
        let items: Vec<usize> = (0..37).collect();
        set_threads(1);
        let serial = par_map(&items, 1, |i, &x| (i, x * 3));
        set_threads(5);
        let parallel = par_map(&items, 1, |i, &x| (i, x * 3));
        set_threads(0);
        assert_eq!(serial, parallel);
        assert_eq!(serial[36], (36, 108));
    }

    #[test]
    fn par_map_gates_small_batches() {
        let _g = test_guard();
        set_threads(8);
        // 3 items with min 4 per worker → inline path.
        let out = par_map(&[10, 20, 30], 4, |_i, &x| x + 1);
        set_threads(0);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn threads_respects_override() {
        let _g = test_guard();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
