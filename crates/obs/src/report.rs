//! End-of-run report: a metric snapshot, printable as one block. Examples
//! print this after a forget→recover run so "what did this recovery
//! actually do?" has a first-class answer.

use crate::export;
use crate::registry::Snapshot;

/// A point-in-time run report.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Metric registry state (or a delta window of it).
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Captures the global registry.
    pub fn capture() -> Self {
        RunReport {
            snapshot: Snapshot::capture(),
        }
    }

    /// Captures, windowed against an earlier snapshot (counter and
    /// histogram values become the activity since `base`).
    pub fn since(base: &Snapshot) -> Self {
        RunReport {
            snapshot: Snapshot::capture().delta(base),
        }
    }

    /// The metrics in Prometheus text format (see
    /// [`export::to_prometheus`]).
    pub fn to_prometheus(&self) -> String {
        export::to_prometheus(&self.snapshot)
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== run report ==")?;
        if self.snapshot.is_empty() {
            write!(f, "(no metrics recorded — was collection turned off?)")
        } else {
            write!(f, "{}", export::to_table(&self.snapshot).trim_end())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_prints_a_header_and_the_metrics() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        crate::counter!("report.test.rounds").add(3);
        let r = RunReport::capture();
        let text = r.to_string();
        assert!(text.starts_with("== run report ==\n"));
        assert!(text.contains("report.test.rounds"));
        assert!(!text.ends_with('\n'));
    }

    #[test]
    fn since_windows_the_counters() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let c = crate::counter!("report.test.windowed");
        c.add(5);
        let base = Snapshot::capture();
        c.add(2);
        let r = RunReport::since(&base);
        assert_eq!(r.snapshot.counter("report.test.windowed"), 2);
    }
}
