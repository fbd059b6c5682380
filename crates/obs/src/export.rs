//! Snapshot exporters: human summary table, JSON-lines, Prometheus text.
//!
//! All three render a [`Snapshot`] in deterministic (name-sorted) order.
//! JSON-lines is the machine interchange format and round-trips through
//! [`parse_jsonl`] exactly (`parse_jsonl(to_jsonl(s)) == s`), which the
//! registry tests pin. The writer emits no floats — counts, sums and
//! bucket bounds are integers — so the round-trip needs no tolerance.

use crate::registry::{HistogramSnapshot, Snapshot};
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

/// Serialises the snapshot as JSON-lines: one object per metric.
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let _ = writeln!(
            out,
            r#"{{"type":"counter","name":"{}","value":{v}}}"#,
            escape(name)
        );
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(
            out,
            r#"{{"type":"gauge","name":"{}","value":{v}}}"#,
            escape(name)
        );
    }
    for (name, h) in &snap.histograms {
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|(le, n)| format!("[{le},{n}]"))
            .collect();
        let _ = writeln!(
            out,
            r#"{{"type":"histogram","name":"{}","count":{},"sum":{},"buckets":[{}]}}"#,
            escape(name),
            h.count,
            h.sum,
            buckets.join(",")
        );
    }
    out
}

/// Error from [`parse_jsonl`]: the offending line and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jsonl line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses the JSON-lines format emitted by [`to_jsonl`] back into a
/// [`Snapshot`]. Accepts exactly that emission grammar (key order fixed,
/// integer values) — this is a wire-format round-trip, not a general JSON
/// parser.
///
/// # Errors
///
/// [`ParseError`] naming the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Snapshot, ParseError> {
    let mut snap = Snapshot::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: &str| ParseError {
            line: i + 1,
            message: message.to_string(),
        };
        let rest = line
            .strip_prefix(r#"{"type":""#)
            .ok_or_else(|| err("missing type header"))?;
        if let Some(rest) = rest.strip_prefix(r#"counter","name":""#) {
            let (name, value) = parse_name_value(rest).ok_or_else(|| err("bad counter"))?;
            let value = value.parse::<u64>().map_err(|_| err("bad counter value"))?;
            let total = snap.counters.entry(name).or_insert(0);
            *total = total
                .checked_add(value)
                .ok_or_else(|| err("counter sum overflows u64"))?;
        } else if let Some(rest) = rest.strip_prefix(r#"gauge","name":""#) {
            let (name, value) = parse_name_value(rest).ok_or_else(|| err("bad gauge"))?;
            let value = value.parse::<i64>().map_err(|_| err("bad gauge value"))?;
            snap.gauges.insert(name, value);
        } else if let Some(rest) = rest.strip_prefix(r#"histogram","name":""#) {
            let (name, h) = parse_histogram(rest).ok_or_else(|| err("bad histogram"))?;
            snap.histograms.insert(name, h);
        } else {
            return Err(err("unknown metric type"));
        }
    }
    Ok(snap)
}

/// Splits `name","value":<int>}` into the unescaped name and the integer
/// text.
fn parse_name_value(rest: &str) -> Option<(String, &str)> {
    let (name, rest) = split_name(rest)?;
    let value = rest.strip_prefix(r#","value":"#)?.strip_suffix('}')?;
    Some((name, value))
}

/// Splits `name","count":C,"sum":S,"buckets":[[le,n],...]}`.
fn parse_histogram(rest: &str) -> Option<(String, HistogramSnapshot)> {
    let (name, rest) = split_name(rest)?;
    let rest = rest.strip_prefix(r#","count":"#)?;
    let (count, rest) = rest.split_once(r#","sum":"#)?;
    let (sum, rest) = rest.split_once(r#","buckets":["#)?;
    let body = rest.strip_suffix("]}")?;
    let mut buckets = Vec::new();
    if !body.is_empty() {
        for pair in body.split("],[") {
            let pair = pair.trim_start_matches('[').trim_end_matches(']');
            let (le, n) = pair.split_once(',')?;
            buckets.push((le.parse().ok()?, n.parse().ok()?));
        }
    }
    Some((
        name,
        HistogramSnapshot {
            count: count.parse().ok()?,
            sum: sum.parse().ok()?,
            buckets,
        },
    ))
}

/// Consumes an escaped JSON string up to its closing quote, returning the
/// unescaped name and the remainder after the quote.
fn split_name(s: &str) -> Option<(String, &str)> {
    let mut name = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((name, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => name.push('"'),
                '\\' => name.push('\\'),
                _ => return None,
            },
            c => name.push(c),
        }
    }
    None
}

fn escape(name: &str) -> String {
    name.replace('\\', r"\\").replace('"', r#"\""#)
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
    fn jsonl_round_trips_exactly() {
        let s = sample();
        assert_eq!(parse_jsonl(&to_jsonl(&s)).unwrap(), s);
    }

    #[test]
    fn jsonl_round_trips_escaped_names() {
        let mut s = Snapshot::default();
        s.counters.insert(r#"weird"name\with.stuff"#.into(), 1);
        assert_eq!(parse_jsonl(&to_jsonl(&s)).unwrap(), s);
    }

    #[test]
    fn jsonl_rejects_garbage_with_line_numbers() {
        // to_jsonl ends with a newline, so the blank line 6 is skipped
        // and the garbage sits on line 7.
        let text = format!("{}\nnot json\n", to_jsonl(&sample()));
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 7);
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
