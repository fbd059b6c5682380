//! Aggregation: trials → Table-I-style comparison tables + CI-gated
//! shape-claim verdicts.
//!
//! Trials are grouped by `(row, variant)`; each metric column — and each
//! observability counter of the trials' embedded RunReports — gets its
//! mean and spread (min..max) across the group's seeds. A row's
//! [`ShapeAssert`]s are then evaluated against the aggregated means and
//! reported as machine-readable pass/fail outcomes: a paper's "expected
//! shape" promoted to a gate. Asserts address counters as
//! `counters.<name>` (e.g. `counters.fl.upload_bytes_sign`).

use crate::json::Json;
use crate::matrix::{AssertOp, Operand, ScenarioRow, ShapeAssert};
use crate::runner::TrialReport;
use fuiov_eval::table::Table;
use std::collections::BTreeMap;

/// Mean and range of one metric across a group's trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Observation count.
    pub n: usize,
}

impl Stats {
    /// `max - min` — the cross-seed spread.
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

/// All trials of one `(row, variant)` cell, aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Row id.
    pub row_id: String,
    /// Variant label.
    pub variant: String,
    /// Task name (from the trials).
    pub task: String,
    /// Trial count.
    pub n: usize,
    /// Per-metric statistics.
    pub metrics: BTreeMap<String, Stats>,
    /// Per-counter statistics (the trials' windowed observability
    /// counters).
    pub counters: BTreeMap<String, Stats>,
}

/// Prefix under which asserts and tables address counters.
const COUNTER_PREFIX: &str = "counters.";

impl Aggregate {
    /// The statistics of a metric, or of a counter when the name carries
    /// the `counters.` prefix.
    pub fn stat(&self, name: &str) -> Option<&Stats> {
        match name.strip_prefix(COUNTER_PREFIX) {
            Some(counter) => self.counters.get(counter),
            None => self.metrics.get(name),
        }
    }
}

/// Folds one observation into a name → stats map (mean finalised later).
fn observe(stats: &mut BTreeMap<String, Stats>, name: &str, v: f64) {
    let s = stats.entry(name.to_string()).or_insert(Stats {
        mean: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        n: 0,
    });
    s.mean += v;
    s.min = s.min.min(v);
    s.max = s.max.max(v);
    s.n += 1;
}

/// Groups trials by `(row, variant)` (insertion order preserved) and
/// computes per-metric stats.
pub fn aggregate(reports: &[TrialReport]) -> Vec<Aggregate> {
    let mut order: Vec<(String, String)> = Vec::new();
    let mut groups: BTreeMap<(String, String), Vec<&TrialReport>> = BTreeMap::new();
    for r in reports {
        let key = (r.row_id.clone(), r.variant.clone());
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(r);
    }
    order
        .into_iter()
        .map(|key| {
            let trials = &groups[&key];
            let mut metrics: BTreeMap<String, Stats> = BTreeMap::new();
            let mut counters: BTreeMap<String, Stats> = BTreeMap::new();
            for t in trials {
                for (name, &v) in &t.metrics {
                    observe(&mut metrics, name, v);
                }
                for (name, &v) in &t.counters {
                    observe(&mut counters, name, v as f64);
                }
            }
            for s in metrics.values_mut().chain(counters.values_mut()) {
                s.mean /= s.n as f64;
            }
            Aggregate {
                row_id: key.0,
                variant: key.1,
                task: trials[0].task.clone(),
                n: trials.len(),
                metrics,
                counters,
            }
        })
        .collect()
}

/// The union of metric names across aggregates, `acc.*` first (Table-I
/// column order), then everything else alphabetically.
pub fn metric_columns(aggs: &[Aggregate]) -> Vec<String> {
    let mut acc: Vec<String> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    // Table-I method order for the acc columns.
    for m in crate::matrix::Method::ALL {
        let name = format!("acc.{}", m.name());
        if aggs.iter().any(|a| a.metrics.contains_key(&name)) {
            acc.push(name);
        }
    }
    for a in aggs {
        for name in a.metrics.keys() {
            if !name.starts_with("acc.") && !rest.contains(name) {
                rest.push(name.clone());
            }
        }
    }
    rest.sort();
    acc.extend(rest);
    acc
}

/// Renders one comparison table per row, headed by the row id and task:
/// a line per variant with the `mean` of every metric the row's trials
/// report plus every counter its asserts gate on, and the spread
/// appended (`±`) when a cell has several trials.
pub fn render_table(rows: &[ScenarioRow], aggs: &[Aggregate]) -> String {
    let mut tables = Vec::new();
    for row in rows {
        let group: Vec<Aggregate> = aggs
            .iter()
            .filter(|g| g.row_id == row.id)
            .cloned()
            .collect();
        if group.is_empty() {
            continue;
        }
        let mut columns = metric_columns(&group);
        for name in row.asserts.iter().flat_map(counter_operands) {
            if !columns.contains(&name) {
                columns.push(name);
            }
        }
        let mut headers: Vec<&str> = vec!["variant", "n"];
        headers.extend(columns.iter().map(String::as_str));
        let mut table = Table::new(&headers);
        for g in &group {
            let mut cells = vec![g.variant.clone(), g.n.to_string()];
            for c in &columns {
                cells.push(match g.stat(c) {
                    None => "-".to_string(),
                    Some(s) if s.n > 1 => format!("{:.3} ±{:.3}", s.mean, s.spread() / 2.0),
                    Some(s) => format!("{:.3}", s.mean),
                });
            }
            table.row(&cells);
        }
        let task = row.task.name();
        tables.push(format!(
            "### {} ({task})\n\n{}",
            row.id,
            table.to_markdown()
        ));
    }
    tables.join("\n")
}

/// The `counters.*` names an assert reads.
fn counter_operands(claim: &ShapeAssert) -> Vec<String> {
    let rhs = match &claim.rhs {
        Operand::Metric(m) => Some(m),
        Operand::Const(_) => None,
    };
    std::iter::once(&claim.lhs)
        .chain(rhs)
        .filter(|n| n.starts_with(COUNTER_PREFIX))
        .cloned()
        .collect()
}

/// One evaluated shape claim.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertOutcome {
    /// Row id the claim belongs to.
    pub row_id: String,
    /// Variant the claim was evaluated on.
    pub variant: String,
    /// The claim, human-readable.
    pub expr: String,
    /// Evaluated left-hand mean.
    pub lhs: f64,
    /// Evaluated right-hand value.
    pub rhs: f64,
    /// Did it hold?
    pub pass: bool,
}

fn holds(lhs: f64, op: AssertOp, rhs: f64, tol: f64) -> bool {
    match op {
        AssertOp::Ge => lhs >= rhs - tol,
        AssertOp::Le => lhs <= rhs + tol,
        AssertOp::Gt => lhs > rhs - tol,
        AssertOp::Lt => lhs < rhs + tol,
        AssertOp::Approx => (lhs - rhs).abs() <= tol,
    }
}

/// Evaluates every row's asserts against the aggregated means, once per
/// variant of that row present in `aggs`. A metric missing from the
/// aggregate fails the claim (a typo'd metric name must not silently
/// pass CI).
pub fn check_asserts(rows: &[ScenarioRow], aggs: &[Aggregate]) -> Vec<AssertOutcome> {
    let mut outcomes = Vec::new();
    for row in rows {
        for agg in aggs.iter().filter(|a| a.row_id == row.id) {
            for claim in &row.asserts {
                let lhs = agg.stat(&claim.lhs).map(|s| s.mean);
                let rhs = match &claim.rhs {
                    Operand::Const(c) => Some(*c),
                    Operand::Metric(m) => agg.stat(m).map(|s| s.mean),
                };
                let (pass, lhs, rhs) = match (lhs, rhs) {
                    (Some(l), Some(r)) => (holds(l, claim.op, r, claim.tol), l, r),
                    (l, r) => (false, l.unwrap_or(f64::NAN), r.unwrap_or(f64::NAN)),
                };
                outcomes.push(AssertOutcome {
                    row_id: row.id.clone(),
                    variant: agg.variant.clone(),
                    expr: claim.expr(),
                    lhs,
                    rhs,
                    pass,
                });
            }
        }
    }
    outcomes
}

/// Machine-readable asserts artifact (a JSON array, one object per
/// claim). NaN operands (missing metrics) are rendered as `null`.
pub fn outcomes_to_json(outcomes: &[AssertOutcome]) -> String {
    let num = |v: f64| {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    };
    Json::Arr(
        outcomes
            .iter()
            .map(|o| {
                Json::Obj(vec![
                    ("row".into(), Json::Str(o.row_id.clone())),
                    ("variant".into(), Json::Str(o.variant.clone())),
                    ("expr".into(), Json::Str(o.expr.clone())),
                    ("lhs".into(), num(o.lhs)),
                    ("rhs".into(), num(o.rhs)),
                    ("pass".into(), Json::Bool(o.pass)),
                ])
            })
            .collect(),
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::parse_matrix;
    use std::collections::BTreeMap;

    fn trial(row: &str, variant: &str, seed: u64, metrics: &[(&str, f64)]) -> TrialReport {
        TrialReport {
            row_id: row.into(),
            variant: variant.into(),
            task: "tiny".into(),
            seed,
            repeat: 0,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            digests: BTreeMap::new(),
            counters: [("fl.upload_bytes_sign".to_string(), 40 * seed)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn aggregates_mean_and_spread_per_group() {
        let reports = vec![
            trial("a", "base", 1, &[("acc.ours", 0.6)]),
            trial("a", "base", 2, &[("acc.ours", 0.8)]),
            trial("a", "v1", 1, &[("acc.ours", 0.1)]),
        ];
        let aggs = aggregate(&reports);
        assert_eq!(aggs.len(), 2);
        let base = &aggs[0];
        assert_eq!(base.n, 2);
        let s = base.metrics["acc.ours"];
        assert!((s.mean - 0.7).abs() < 1e-12);
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn asserts_pass_fail_and_flag_missing_metrics() {
        let rows = parse_matrix(concat!(
            r#"{"id":"a","task":"tiny","asserts":["#,
            r#"{"lhs":"acc.retraining","op":">=","rhs":"acc.ours","tol":0.05},"#,
            r#"{"lhs":"acc.ours","op":">","rhs":0.9},"#,
            r#"{"lhs":"acc.typo","op":">=","rhs":0},"#,
            r#"{"lhs":"counters.fl.upload_bytes_sign","op":"<","rhs":100},"#,
            r#"{"lhs":"counters.fl.missing","op":">=","rhs":0}]}"#
        ))
        .unwrap();
        let reports = vec![trial(
            "a",
            "base",
            1,
            &[("acc.retraining", 0.7), ("acc.ours", 0.72)],
        )];
        let outcomes = check_asserts(&rows, &aggregate(&reports));
        assert_eq!(outcomes.len(), 5);
        // 0.70 >= 0.72 - 0.05 holds.
        assert!(outcomes[0].pass);
        // 0.72 > 0.9 fails.
        assert!(!outcomes[1].pass);
        // Missing metric fails loudly.
        assert!(!outcomes[2].pass);
        // Counters are read through the `counters.` prefix; a missing one
        // fails like a missing metric.
        assert_eq!(outcomes[3].lhs, 40.0);
        assert!(outcomes[3].pass);
        assert!(!outcomes[4].pass);
        let json = outcomes_to_json(&outcomes);
        assert!(json.contains("\"pass\":false"));
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn tables_render_per_row_with_asserted_counters() {
        let rows = parse_matrix(concat!(
            r#"{"id":"a","task":"tiny","asserts":["#,
            r#"{"lhs":"counters.fl.upload_bytes_sign","op":">","rhs":0}]}"#,
            "\n",
            r#"{"id":"b","task":"tiny"}"#
        ))
        .unwrap();
        let reports = vec![
            trial("a", "base", 1, &[("acc.ours", 0.5), ("mia.ours", 0.02)]),
            trial("b", "base", 1, &[("acc.ours", 0.25)]),
        ];
        let t = render_table(&rows, &aggregate(&reports));
        assert!(t.contains("### a (tiny)"), "{t}");
        assert!(t.contains("### b (tiny)"), "{t}");
        assert!(t.contains("mia.ours"));
        assert!(t.contains("0.500"));
        assert!(t.contains("counters.fl.upload_bytes_sign"));
        assert!(t.contains("40.000"));
        // Row b reports no MIA column and gates on no counter.
        let b = &t[t.find("### b").unwrap()..];
        assert!(!b.contains("mia.ours") && !b.contains("counters."), "{b}");
    }
}
