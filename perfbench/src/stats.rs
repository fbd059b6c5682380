//! Order statistics and the run tally shared by the workloads.

/// Median of `v` (the mean of the middle two for even lengths); `None`
/// when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Median, or zero for an empty sample (a layer the workload bypasses).
pub fn median_or_zero(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Ops attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops that failed any check.
    pub failed: u64,
    /// Why they failed (capped, for stderr).
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one op that passed when `problems` is empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.ops(1, problems);
    }

    /// Counts `n` ops judged together (e.g. the rounds of one socket
    /// episode): all pass, or all fail.
    pub fn ops(&mut self, n: u64, problems: Vec<String>) {
        self.attempted += n;
        if !problems.is_empty() {
            self.failed += n;
            for p in problems {
                if self.failures.len() < 16 {
                    self.failures.push(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn tally_counts_failed_groups() {
        let mut t = Tally::default();
        t.op(vec![]);
        t.ops(5, vec!["bad bytes".into()]);
        assert_eq!((t.attempted, t.failed), (6, 5));
        assert_eq!(t.failures, vec!["bad bytes".to_string()]);
    }
}
