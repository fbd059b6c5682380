//! Snapshot exporters: human summary table and Prometheus text.
//!
//! Both render a [`Snapshot`] in deterministic (name-sorted) order.

use crate::registry::Snapshot;
use std::fmt::Write as _;

/// Renders the snapshot as an aligned two-column summary table.
pub fn to_table(snap: &Snapshot) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for (name, v) in &snap.counters {
        rows.push((name.clone(), v.to_string()));
    }
    for (name, v) in &snap.gauges {
        rows.push((name.clone(), v.to_string()));
    }
    for (name, h) in &snap.histograms {
        let mean = h
            .mean()
            .map_or_else(|| "-".to_string(), |m| format!("{m:.1}"));
        rows.push((
            name.clone(),
            format!("n={} sum={} mean={}", h.count, h.sum, mean),
        ));
    }
    rows.sort();
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in rows {
        let _ = writeln!(out, "{name:<width$}  {value}");
    }
    out
}

/// Renders the snapshot in the Prometheus text exposition format.
/// Metric names are sanitised (`.` and other non-identifier characters
/// become `_`); histograms emit cumulative `_bucket{le="…"}` series plus
/// `_sum` and `_count`.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = sanitise(name);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = sanitise(name);
        let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
    }
    for (name, h) in &snap.histograms {
        let n = sanitise(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for &(le, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
    }
    out
}

fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::HistogramSnapshot;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("a.count".into(), 42);
        s.counters.insert("b.count".into(), 0);
        s.gauges.insert("c.level".into(), -7);
        s.histograms.insert(
            "d.hist".into(),
            HistogramSnapshot {
                count: 3,
                sum: 1004,
                buckets: vec![(1, 2), (1023, 1)],
            },
        );
        s.histograms
            .insert("e.empty".into(), HistogramSnapshot::default());
        s
    }

    #[test]
    fn table_lists_every_metric() {
        let t = to_table(&sample());
        for name in ["a.count", "b.count", "c.level", "d.hist", "e.empty"] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
        assert!(t.contains("n=3 sum=1004"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let p = to_prometheus(&sample());
        assert!(p.contains("# TYPE d_hist histogram"));
        assert!(p.contains("d_hist_bucket{le=\"1\"} 2"));
        assert!(p.contains("d_hist_bucket{le=\"1023\"} 3"));
        assert!(p.contains("d_hist_bucket{le=\"+Inf\"} 3"));
        assert!(p.contains("d_hist_sum 1004"));
        assert!(p.contains("c_level -7"));
    }
}
