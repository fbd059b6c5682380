//! Static metric registry.
//!
//! Metrics are `static`s declared in place by the [`counter!`],
//! [`gauge!`] and [`histogram!`] macros. Recording is a relaxed atomic
//! add; a metric appends itself to one global list the first time it is
//! touched (the list's mutex is taken then and by [`Snapshot::capture`],
//! never per update), so the registry holds exactly the metrics a run
//! exercised and enumeration never scans dead instruments.
//!
//! Determinism: every accumulator is an integer. Integer atomic addition
//! is associative and commutative, so the totals a [`Snapshot`] reads are
//! a pure function of the *set* of recorded events, independent of thread
//! interleaving — the property the registry tests pin with
//! `fuiov_tensor::pool` workers.
//!
//! [`counter!`]: crate::counter
//! [`gauge!`]: crate::gauge
//! [`histogram!`]: crate::histogram

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Log2 histogram bucket count: bucket `i` holds values whose bit length
/// is `i` (value 0 lands in bucket 0), the last bucket is a catch-all.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Scale used by [`Histogram::observe_scaled`]: one unit = 1 micro.
pub const MICROS_PER_UNIT: f64 = 1_000_000.0;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Const constructor for use in `static` declarations (prefer the
    /// [`counter!`](crate::counter) macro).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Adds `n`. A no-op (one relaxed load, one branch) when collection
    /// is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (reads even while disabled).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[inline]
    fn ensure_registered(&'static self) {
        if !self.registered.load(Ordering::Acquire) {
            register(&self.registered, AnyMetric::Counter(self));
        }
    }
}

/// A signed last-write-wins level (resident bytes, ring occupancy, …).
///
/// Unlike counters and histograms, concurrent `set` calls race by design;
/// use gauges only from single-threaded control paths when determinism of
/// the exported value matters.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    registered: AtomicBool,
}

impl Gauge {
    /// Const constructor for use in `static` declarations (prefer the
    /// [`gauge!`](crate::gauge) macro).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicI64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the level.
    #[inline]
    pub fn set(&'static self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.ensure_registered();
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&'static self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    #[inline]
    fn ensure_registered(&'static self) {
        if !self.registered.load(Ordering::Acquire) {
            register(&self.registered, AnyMetric::Gauge(self));
        }
    }
}

/// A log2-bucketed distribution over unsigned integer observations.
///
/// Float quantities (norms, ratios) go through
/// [`Histogram::observe_scaled`], which records micro-units — integers —
/// so concurrent observation stays order-independent (no float atomics,
/// no non-associative sums).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    /// Const constructor for use in `static` declarations (prefer the
    /// [`histogram!`](crate::histogram) macro).
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.ensure_registered();
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a non-negative float observation in micro-units
    /// (`v * 1e6`, saturating; NaN/negative observe 0).
    #[inline]
    pub fn observe_scaled(&'static self, v: f64) {
        self.observe(to_micros(v));
    }

    /// Bucket index of a value: its bit length, capped at the last
    /// bucket. Bucket `i` therefore spans `[2^(i-1), 2^i)` (0 → bucket 0).
    pub fn bucket_index(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    #[inline]
    fn ensure_registered(&'static self) {
        if !self.registered.load(Ordering::Acquire) {
            register(&self.registered, AnyMetric::Histogram(self));
        }
    }

    fn snapshot_value(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((Self::bucket_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Converts a float to saturating micro-units (NaN/negative → 0).
pub fn to_micros(v: f64) -> u64 {
    if !v.is_finite() || v <= 0.0 {
        return if v == f64::INFINITY { u64::MAX } else { 0 };
    }
    let scaled = v * MICROS_PER_UNIT;
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

/// Point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values (micro-units for scaled observations).
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One registered metric (type-erased for registry traversal).
#[derive(Clone, Copy)]
enum AnyMetric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// Every metric touched so far, oldest first. Each metric is appended
/// once, at its first touch; the list is never shrunk. A push leaves the
/// list valid at every step, so a lock poisoned by a panicking holder is
/// taken over as is.
static REGISTRY: Mutex<Vec<AnyMetric>> = Mutex::new(Vec::new());

/// Appends `metric` unless its `registered` flag was already set: of
/// many threads racing on a metric's first touch, exactly one appends.
#[cold]
fn register(registered: &AtomicBool, metric: AnyMetric) {
    if !registered.swap(true, Ordering::AcqRel) {
        REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(metric);
    }
}

/// Point-in-time copy of every registered metric, keyed by name.
///
/// Two macro call sites may share a name (e.g. the same logical event
/// recorded from two code paths); their values merge: counters and
/// histogram accumulators add, and gauges keep the largest magnitude (of
/// equal magnitudes, the first registered).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Captures the current state of the global registry.
    pub fn capture() -> Self {
        let mut snap = Snapshot::default();
        let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        // Newest first: of same-name gauges of equal magnitude, the one
        // registered first is visited last and wins.
        registry.iter().rev().for_each(|&m| match m {
            AnyMetric::Counter(c) => {
                *snap.counters.entry(c.name().to_string()).or_insert(0) += c.get();
            }
            AnyMetric::Gauge(g) => {
                let slot = snap.gauges.entry(g.name().to_string()).or_insert(0);
                if g.get().abs() >= slot.abs() {
                    *slot = g.get();
                }
            }
            AnyMetric::Histogram(h) => {
                let v = h.snapshot_value();
                let slot = snap.histograms.entry(h.name().to_string()).or_default();
                slot.count += v.count;
                slot.sum += v.sum;
                let mut merged: BTreeMap<u64, u64> = slot.buckets.iter().copied().collect();
                for (le, n) in v.buckets {
                    *merged.entry(le).or_insert(0) += n;
                }
                slot.buckets = merged.into_iter().collect();
            }
        });
        snap
    }

    /// A counter's total, `0` if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's level, `0` if never touched.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's state, if touched.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Monotone difference `self − earlier` for counters and histograms
    /// (saturating, so a registry reset between snapshots cannot
    /// underflow); gauges keep their current level. This is how tests
    /// isolate one run's activity from global, process-wide totals.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                let base = earlier.histograms.get(k);
                let count = v.count.saturating_sub(base.map_or(0, |b| b.count));
                let sum = v.sum.saturating_sub(base.map_or(0, |b| b.sum));
                let buckets = v
                    .buckets
                    .iter()
                    .filter_map(|&(le, n)| {
                        let before = base
                            .and_then(|b| b.buckets.iter().find(|(l, _)| *l == le))
                            .map_or(0, |(_, n)| *n);
                        let d = n.saturating_sub(before);
                        (d > 0).then_some((le, d))
                    })
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count,
                        sum,
                        buckets,
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        let _g = crate::test_lock();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_nest() {
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert!(Histogram::bucket_bound(i) > Histogram::bucket_bound(i - 1));
            // Every value in bucket i is ≤ its bound.
            let top = Histogram::bucket_bound(i);
            assert_eq!(Histogram::bucket_index(top), i);
        }
        assert_eq!(Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn to_micros_clamps() {
        let _g = crate::test_lock();
        assert_eq!(to_micros(0.0), 0);
        assert_eq!(to_micros(-1.0), 0);
        assert_eq!(to_micros(f64::NAN), 0);
        assert_eq!(to_micros(1.0), 1_000_000);
        assert_eq!(to_micros(f64::INFINITY), u64::MAX);
        assert_eq!(to_micros(1e300), u64::MAX);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let c = crate::counter!("registry.test.counter_accumulates");
        let before = Snapshot::capture().counter("registry.test.counter_accumulates");
        c.inc();
        c.add(4);
        let after = Snapshot::capture().counter("registry.test.counter_accumulates");
        assert_eq!(after - before, 5);
    }

    #[test]
    fn gauges_set_and_add() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let g = crate::gauge!("registry.test.gauge_levels");
        g.set(10);
        g.add(-3);
        assert_eq!(Snapshot::capture().gauge("registry.test.gauge_levels"), 7);
    }

    #[test]
    fn same_name_gauges_of_equal_magnitude_keep_the_first_registered() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        crate::gauge!("registry.test.gauge_tie").set(-5);
        crate::gauge!("registry.test.gauge_tie").set(5);
        assert_eq!(Snapshot::capture().gauge("registry.test.gauge_tie"), -5);
    }

    #[test]
    fn histogram_mean_and_buckets() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let h = crate::histogram!("registry.test.hist_mean");
        let before = Snapshot::capture();
        h.observe(1);
        h.observe(3);
        h.observe(1000);
        let snap = Snapshot::capture().delta(&before);
        let hs = snap.histogram("registry.test.hist_mean").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 1004);
        assert_eq!(hs.mean(), Some(1004.0 / 3.0));
        assert_eq!(hs.buckets.iter().map(|(_, n)| n).sum::<u64>(), 3);
    }

    #[test]
    fn delta_isolates_a_window() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let c = crate::counter!("registry.test.delta_window");
        c.add(7);
        let base = Snapshot::capture();
        c.add(2);
        let d = Snapshot::capture().delta(&base);
        assert_eq!(d.counter("registry.test.delta_window"), 2);
    }
}
