//! # fuiov-lab — scenario lab
//!
//! Declarative experiment matrix with a CI-gated trial runner — the one
//! way to run the paper's experiments:
//!
//! 1. **matrix** — `scenarios.jsonl` is parsed into [`ScenarioRow`]s
//!    (strict: unknown fields, duplicate ids, and type mismatches are
//!    typed errors, not silently-ignored YAML soup);
//! 2. **plan** — rows expand deterministically into [`TrialPlan`]s
//!    (tasks × variants × repeats, seeded), pinned by an FNV-1a
//!    fingerprint so "same matrix → same plans" is checkable in CI;
//! 3. **scenario** + **runner** — each plan builds a §V [`Scenario`],
//!    trains once and scores every requested method through the facade
//!    (server knobs, jobs service, loopback transport all addressable as
//!    scenario fields), emitting one [`TrialReport`] JSON-line per trial;
//! 4. **aggregate** — trials fold into one comparison table per row
//!    (mean ± spread across seeds) and machine-readable shape-claim
//!    verdicts that gate CI;
//! 5. **bench_gate** — the recorded `BENCH_micro.json` is re-checked
//!    against its schema.
//!
//! The `lab` binary (`cargo run -p fuiov-lab --bin lab`) fronts all of
//! this; `scripts/tier1.sh lab` runs the deterministic `--smoke` slice.

pub mod aggregate;
pub mod bench_gate;
pub mod json;
pub mod matrix;
pub mod plan;
pub mod runner;
pub mod scenario;

pub use aggregate::{aggregate, check_asserts, outcomes_to_json, render_table, Aggregate};
pub use bench_gate::{check_micro, BenchGateError};
pub use json::{Json, JsonError};
pub use matrix::{parse_matrix, render_matrix, MatrixError, ScenarioRow};
pub use plan::{expand, plan_fingerprint, PlanFilter, TrialPlan};
pub use runner::{run_trial, TrialError, TrialReport};
pub use scenario::{ours_config, Attack, DatasetKind, Scenario, Trained};
