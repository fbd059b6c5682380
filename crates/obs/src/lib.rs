//! # fuiov-obs — deterministic observability for the unlearning stack
//!
//! The paper's argument is quantitative (recovery cost vs. retraining,
//! storage saved by sign-only directions, clip-threshold behaviour), yet a
//! replay loop is opaque while it runs. This crate makes a run *visible*
//! without making it *different*:
//!
//! - [`registry`] — a static registry of atomic [`Counter`]s, [`Gauge`]s
//!   and [`Histogram`]s, declared in place with the
//!   [`counter!`]/[`gauge!`]/[`histogram!`] macros and exported as a human
//!   summary table or Prometheus text ([`export`]).
//! - [`RunReport`] — an end-of-run snapshot the examples print and the
//!   scenario lab embeds in every trial line.
//!
//! ## Determinism contract
//!
//! Instrumentation is *observational*: no counter, gauge or histogram may
//! feed back into model arithmetic, iteration order, or any recorded
//! byte, and nothing here reads a clock. Histogram sums are integer
//! micro-units precisely so that concurrent observation is associative —
//! the same set of events produces the same totals under any thread
//! interleaving. The golden traces and replay fingerprints are
//! byte-identical with collection enabled or disabled (`fuiov-testkit`
//! pins this).
//!
//! ## Switch
//!
//! Collection is on from the start of a process; [`set_enabled`] turns
//! it off or on again. No environment variable is read.
//!
//! ## Example
//!
//! ```
//! use fuiov_obs::{counter, histogram, RunReport};
//!
//! counter!("demo.rounds").inc();
//! histogram!("demo.update_norm_micros").observe_scaled(0.25);
//! let report = RunReport::capture();
//! assert!(report.snapshot.counter("demo.rounds") >= 1);
//! println!("{report}");
//! ```

pub mod export;
pub mod registry;
mod report;

pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Snapshot};
pub use report::RunReport;

use std::sync::atomic::{AtomicBool, Ordering};

/// The runtime switch; on until [`set_enabled`] turns it off.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether collection is active.
///
/// One relaxed atomic load on the hot path — cheap enough to gate every
/// recording call, and instrumentation sites hoist it out of inner loops
/// when the extra observation itself costs something (e.g. clip norms).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Overrides the runtime switch (tests use this to compare obs-on and
/// obs-off behaviour within one process).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Declares (statically, in place) and returns a `&'static` [`Counter`].
///
/// The metric registers itself in the global registry on first touch;
/// until then it costs one static and nothing else.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static METRIC: $crate::registry::Counter = $crate::registry::Counter::new($name);
        &METRIC
    }};
}

/// Declares (statically, in place) and returns a `&'static` [`Gauge`].
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static METRIC: $crate::registry::Gauge = $crate::registry::Gauge::new($name);
        &METRIC
    }};
}

/// Declares (statically, in place) and returns a `&'static` [`Histogram`]
/// with log2 buckets.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static METRIC: $crate::registry::Histogram = $crate::registry::Histogram::new($name);
        &METRIC
    }};
}

/// Serialises tests that toggle the global switch or assert on global
/// registry state. Not part of the public API.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        let _g = test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = test_lock();
        set_enabled(false);
        let c = counter!("lib.disabled_probe");
        c.inc();
        assert_eq!(c.get(), 0);
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
