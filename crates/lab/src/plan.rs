//! Deterministic expansion of matrix rows into trial plans.
//!
//! A row with `v` variants and `r` repeats expands into `(1 + v) · r`
//! trials: the base configuration plus each variant, each at seeds
//! `base_seed .. base_seed + r`. Expansion is pure — same matrix, same
//! filter → byte-identical plan list, pinned by an FNV-1a fingerprint
//! over the canonical encoding (the same hash family as the golden
//! traces, so a fingerprint in a CI log identifies a plan forever).

use crate::matrix::{EvalSpec, Method, Overrides, ScenarioRow, Task};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One fully-resolved trial: a scenario configuration plus a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialPlan {
    /// Owning row id.
    pub row_id: String,
    /// Variant label (`"base"` for the row's own configuration).
    pub variant: String,
    /// Base task.
    pub task: Task,
    /// Repeat index (`0..repeats`).
    pub repeat: u32,
    /// The trial's seed (`base_seed + repeat`).
    pub seed: u64,
    /// Whether the owning row is smoke-tagged.
    pub smoke: bool,
    /// Methods to score.
    pub methods: Vec<Method>,
    /// Eval columns to attach.
    pub evals: Vec<EvalSpec>,
    /// Forget every attacker instead of the designated client.
    pub forget_malicious: bool,
    /// Row overrides merged with variant overrides (variant wins).
    pub overrides: Overrides,
}

impl TrialPlan {
    /// Canonical single-line encoding (the fingerprint input and the
    /// `lab plan` output format). `forget_malicious` appears only when
    /// set, so plans that predate it keep their fingerprints.
    pub fn canonical(&self) -> String {
        let methods: Vec<&str> = self.methods.iter().map(|m| m.name()).collect();
        let evals: Vec<String> = self.evals.iter().map(EvalSpec::metric).collect();
        let forget = if self.forget_malicious {
            " forget_malicious=true"
        } else {
            ""
        };
        format!(
            "row={} variant={} task={} repeat={} seed={} smoke={} methods=[{}] evals=[{}]{forget} overrides={}",
            self.row_id,
            self.variant,
            self.task.name(),
            self.repeat,
            self.seed,
            self.smoke,
            methods.join(","),
            evals.join(","),
            self.overrides.to_json().render(),
        )
    }

    /// FNV-1a fingerprint of this plan alone.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// Which slice of the matrix to expand.
#[derive(Debug, Clone, Default)]
pub struct PlanFilter {
    /// Keep only smoke-tagged rows (the CI slice).
    pub smoke_only: bool,
    /// Replace every row's `base_seed` (the CI fault-seed matrix).
    pub seed_override: Option<u64>,
    /// Keep only these row ids (`None` = all).
    pub row_ids: Option<Vec<String>>,
}

/// Expands matrix rows into the ordered trial list.
pub fn expand(rows: &[ScenarioRow], filter: &PlanFilter) -> Vec<TrialPlan> {
    let mut plans = Vec::new();
    for row in rows {
        if filter.smoke_only && !row.smoke {
            continue;
        }
        if let Some(ids) = &filter.row_ids {
            if !ids.contains(&row.id) {
                continue;
            }
        }
        let base_seed = filter.seed_override.unwrap_or(row.base_seed);
        // The base configuration, then each variant, each × repeats.
        let mut configs: Vec<(String, Overrides)> =
            vec![("base".to_string(), row.overrides.clone())];
        for v in &row.variants {
            configs.push((v.name.clone(), row.overrides.merged(&v.overrides)));
        }
        for (variant, overrides) in configs {
            for repeat in 0..row.repeats {
                plans.push(TrialPlan {
                    row_id: row.id.clone(),
                    variant: variant.clone(),
                    task: row.task,
                    repeat,
                    seed: base_seed + u64::from(repeat),
                    smoke: row.smoke,
                    methods: row.methods.clone(),
                    evals: row.evals.clone(),
                    forget_malicious: row.forget_malicious,
                    overrides: overrides.clone(),
                });
            }
        }
    }
    plans
}

/// Fingerprint of a whole plan list (order-sensitive — the plan order
/// *is* part of the contract).
pub fn plan_fingerprint(plans: &[TrialPlan]) -> u64 {
    let mut joined = String::new();
    for p in plans {
        joined.push_str(&p.canonical());
        joined.push('\n');
    }
    fnv1a(joined.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::parse_matrix;

    const SRC: &str = concat!(
        "{\"id\":\"a\",\"task\":\"tiny\",\"repeats\":2,\"base_seed\":10,\"smoke\":true,",
        "\"variants\":[{\"name\":\"v1\",\"overrides\":{\"rounds\":5}}]}\n",
        "{\"id\":\"b\",\"task\":\"digits\"}\n",
    );

    #[test]
    fn expansion_is_rows_times_variants_times_repeats() {
        let rows = parse_matrix(SRC).unwrap();
        let plans = expand(&rows, &PlanFilter::default());
        // Row a: (base + v1) × 2 repeats = 4; row b: 1.
        assert_eq!(plans.len(), 5);
        assert_eq!(plans[0].variant, "base");
        assert_eq!(plans[0].seed, 10);
        assert_eq!(plans[1].seed, 11);
        assert_eq!(plans[2].variant, "v1");
        assert_eq!(plans[2].overrides.rounds, Some(5));
        assert_eq!(plans[4].row_id, "b");
        assert_eq!(plans[4].seed, crate::matrix::DEFAULT_SEED);
    }

    #[test]
    fn smoke_filter_and_seed_override() {
        let rows = parse_matrix(SRC).unwrap();
        let plans = expand(
            &rows,
            &PlanFilter {
                smoke_only: true,
                seed_override: Some(101),
                row_ids: None,
            },
        );
        assert_eq!(plans.len(), 4);
        assert!(plans.iter().all(|p| p.row_id == "a"));
        assert_eq!(plans[0].seed, 101);
        assert_eq!(plans[1].seed, 102);
    }

    #[test]
    fn fingerprints_are_deterministic_and_sensitive() {
        let rows = parse_matrix(SRC).unwrap();
        let p1 = expand(&rows, &PlanFilter::default());
        let p2 = expand(&rows, &PlanFilter::default());
        assert_eq!(plan_fingerprint(&p1), plan_fingerprint(&p2));
        // Bitwise-identical plans, element by element.
        assert_eq!(p1, p2);
        let shifted = expand(
            &rows,
            &PlanFilter {
                seed_override: Some(7),
                ..Default::default()
            },
        );
        assert_ne!(plan_fingerprint(&p1), plan_fingerprint(&shifted));
    }
}
