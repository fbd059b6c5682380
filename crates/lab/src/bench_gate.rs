//! Bench-regression gate: validates the recorded `BENCH_micro.json`
//! against its schema.
//!
//! Timings drift with hardware, so the gate never compares nanoseconds.
//! What it *does* pin is the **schema**: every epoch carries `meta`,
//! `speedups`, and `results` with positive `ns_per_iter` and at least
//! one sample, so a refresh that half-writes the file cannot land.

use crate::json::Json;
use std::fmt;

/// Why a bench artifact failed the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchGateError {
    /// The file is not valid JSON.
    BadJson(String),
    /// The JSON does not match the artifact's schema.
    Schema(String),
    /// A recorded invariant no longer holds.
    Invariant(String),
}

impl fmt::Display for BenchGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchGateError::BadJson(m) => write!(f, "bad JSON: {m}"),
            BenchGateError::Schema(m) => write!(f, "schema: {m}"),
            BenchGateError::Invariant(m) => write!(f, "invariant: {m}"),
        }
    }
}

impl std::error::Error for BenchGateError {}

/// Summary of a valid `BENCH_micro.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroSummary {
    /// Recorded epochs.
    pub epochs: usize,
    /// Benchmarks in the newest epoch.
    pub benchmarks: usize,
}

/// Validates `BENCH_micro.json` (an epoch array).
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn check_micro(src: &str) -> Result<MicroSummary, BenchGateError> {
    let v = Json::parse(src).map_err(|e| BenchGateError::BadJson(e.to_string()))?;
    let epochs = v
        .as_arr()
        .ok_or_else(|| BenchGateError::Schema("top level must be an epoch array".into()))?;
    if epochs.is_empty() {
        return Err(BenchGateError::Schema("no epochs recorded".into()));
    }
    let mut last_benchmarks = 0;
    for (i, epoch) in epochs.iter().enumerate() {
        let at = |msg: &str| BenchGateError::Schema(format!("epoch {i}: {msg}"));
        epoch
            .get("meta")
            .and_then(Json::as_obj)
            .ok_or_else(|| at("missing 'meta' object"))?;
        let speedups = epoch
            .get("speedups")
            .and_then(Json::as_obj)
            .ok_or_else(|| at("missing 'speedups' object"))?;
        for (name, s) in speedups {
            let s = s
                .as_f64()
                .ok_or_else(|| at(&format!("speedup '{name}' not a number")))?;
            if !s.is_finite() || s <= 0.0 {
                return Err(BenchGateError::Invariant(format!(
                    "epoch {i}: speedup '{name}' = {s} (must be finite and positive)"
                )));
            }
        }
        let results = epoch
            .get("results")
            .and_then(Json::as_obj)
            .ok_or_else(|| at("missing 'results' object"))?;
        if results.is_empty() {
            return Err(at("empty 'results'"));
        }
        for (name, r) in results {
            let ns = r
                .get("ns_per_iter")
                .and_then(Json::as_f64)
                .ok_or_else(|| at(&format!("'{name}' missing ns_per_iter")))?;
            if !ns.is_finite() || ns <= 0.0 {
                return Err(BenchGateError::Invariant(format!(
                    "epoch {i}: '{name}' ns_per_iter = {ns} (must be finite and positive)"
                )));
            }
            let samples = r
                .get("samples")
                .and_then(Json::as_u64)
                .ok_or_else(|| at(&format!("'{name}' missing samples")))?;
            if samples == 0 {
                return Err(BenchGateError::Invariant(format!(
                    "epoch {i}: '{name}' has zero samples"
                )));
            }
        }
        last_benchmarks = results.len();
    }
    Ok(MicroSummary {
        epochs: epochs.len(),
        benchmarks: last_benchmarks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MICRO_OK: &str = concat!(
        r#"[{"meta":{"date":"2026-08-05"},"speedups":{"gemm":2.5},"#,
        r#""results":{"gemm/256":{"ns_per_iter":1000.5,"samples":20}}}]"#
    );

    #[test]
    fn micro_accepts_wellformed_epochs() {
        let s = check_micro(MICRO_OK).unwrap();
        assert_eq!(s.epochs, 1);
        assert_eq!(s.benchmarks, 1);
    }

    #[test]
    fn micro_rejects_schema_and_invariant_violations() {
        assert!(matches!(
            check_micro("{}").unwrap_err(),
            BenchGateError::Schema(_)
        ));
        assert!(matches!(
            check_micro("[]").unwrap_err(),
            BenchGateError::Schema(_)
        ));
        let zero_ns = MICRO_OK.replace("1000.5", "0");
        assert!(matches!(
            check_micro(&zero_ns).unwrap_err(),
            BenchGateError::Invariant(_)
        ));
        let zero_samples = MICRO_OK.replace("\"samples\":20", "\"samples\":0");
        assert!(matches!(
            check_micro(&zero_samples).unwrap_err(),
            BenchGateError::Invariant(_)
        ));
    }
}
