//! What every workload shares: the run context, the op schedule, the
//! result it hands back, obs counter accounting and the digest gate.

use crate::stats::Tally;
use crate::trace::Tracer;
use fuiov_obs::Snapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// Inputs of one workload run.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace_mode: bool,
    /// Tiny shapes for the benchmark's own tests.
    pub tiny: bool,
    /// The span recorder.
    pub tracer: &'a Tracer,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of every measured untraced op (warm-up excluded).
    pub op_ms: Vec<f64>,
    /// Wall time of every measured traced op.
    pub traced_op_ms: Vec<f64>,
    /// Duration of every set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Exact bytes one op moves (see each workload).
    pub bytes_per_op: u64,
    /// Ops attempted and failed.
    pub tally: Tally,
    /// obs counters summed over measured ops.
    pub counters: CounterSum,
    /// Per-layer values that do not come from spans or counters.
    pub layers: Vec<(&'static str, f64)>,
    /// Effective configuration, printed with the result.
    pub config: Vec<(&'static str, String)>,
    /// The digest the correctness gate pins, and whether it matched a
    /// recorded one.
    pub digest: Option<u64>,
    /// `recorded` (a digest is recorded for this seed), `unrecorded` or
    /// `tiny` (test shapes are never recorded).
    pub reference: &'static str,
}

/// Decides how many ops run and which of them are traced: at least
/// `min_ops` measured ops, and more until `seconds` have passed. In the
/// traced run every other op is traced, so the untraced ones give the
/// baseline for the tracing overhead.
#[derive(Debug)]
pub struct Schedule {
    start: Instant,
    seconds: f64,
    min_ops: usize,
    measured: usize,
    trace_mode: bool,
}

impl Schedule {
    /// Starts the measured phase now.
    pub fn start(ctx: &Ctx<'_>, min_ops: usize) -> Self {
        Schedule {
            start: Instant::now(),
            seconds: ctx.seconds,
            min_ops,
            measured: 0,
            trace_mode: ctx.trace_mode,
        }
    }

    /// Whether the measured phase is over.
    pub fn done(&self) -> bool {
        self.measured >= self.min_ops && self.start.elapsed().as_secs_f64() >= self.seconds
    }

    /// Counts one more measured op and says whether to trace it.
    pub fn next_traced(&mut self) -> bool {
        let traced = self.trace_mode && self.measured.is_multiple_of(2);
        self.measured += 1;
        traced
    }

    /// `Some(traced)` for the next op, `None` when the phase is over.
    pub fn next_op(&mut self) -> Option<bool> {
        (!self.done()).then(|| self.next_traced())
    }
}

/// obs counter totals over the measured ops, for per-op averages.
#[derive(Debug, Default)]
pub struct CounterSum {
    totals: BTreeMap<String, u64>,
    ops: u64,
}

impl CounterSum {
    /// Adds the counter movement between two snapshots that bracket `ops`
    /// measured ops.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot, ops: u64) {
        for (name, v) in after.delta(before).counters {
            *self.totals.entry(name).or_insert(0) += v;
        }
        self.ops += ops;
    }

    /// Total of `name` over the measured ops.
    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// Average of `name` per measured op.
    pub fn per_op(&self, name: &str) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total(name) as f64 / self.ops as f64
        }
    }
}

/// Digests recorded per workload and seed at paper shape, one
/// `<workload> <seed> <hex digest>` line each. Regenerate from the
/// `digest` field of the config line of
/// `perfbench --workload <w> --seed <n> --seconds 0 --trace 0`.
const RECORDED: &str = include_str!("../digests.txt");

/// The digest recorded for `workload` at `seed`, if any.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(d, 16).ok())
                .flatten()
        })
}

/// The correctness gate on a result digest: every op must reproduce the
/// first op's digest, and the first op must reproduce the digest recorded
/// for the seed when one is recorded.
#[derive(Debug)]
pub struct DigestGate {
    first: Option<u64>,
    recorded: Option<u64>,
    tiny: bool,
}

impl DigestGate {
    /// A gate for `workload` at the context's seed and shape.
    pub fn new(ctx: &Ctx<'_>, workload: &str) -> Self {
        DigestGate {
            first: None,
            recorded: if ctx.tiny {
                None
            } else {
                recorded_digest(workload, ctx.seed)
            },
            tiny: ctx.tiny,
        }
    }

    /// Checks one op's digest, appending any problem.
    pub fn check(&mut self, digest: u64, problems: &mut Vec<String>) {
        match self.first {
            None => {
                self.first = Some(digest);
                if let Some(want) = self.recorded.filter(|&w| w != digest) {
                    problems.push(format!(
                        "digest {digest:016x} differs from the one recorded for this seed ({want:016x})"
                    ));
                }
            }
            Some(first) if first != digest => problems.push(format!(
                "digest {digest:016x} differs from the first op's ({first:016x})"
            )),
            Some(_) => {}
        }
    }

    /// The pinned digest and how it was referenced, for [`Run`].
    pub fn finish(&self) -> (Option<u64>, &'static str) {
        let reference = if self.tiny {
            "tiny"
        } else if self.recorded.is_some() {
            "recorded"
        } else {
            "unrecorded"
        };
        (self.first, reference)
    }
}

/// Combines several digests (e.g. one per forget job) into one.
pub fn combine(digests: &[u64]) -> u64 {
    let words: Vec<f32> = digests
        .iter()
        .flat_map(|d| [f32::from_bits(*d as u32), f32::from_bits((*d >> 32) as u32)])
        .collect();
    fuiov_testkit::golden::digest_params(&words)
}

/// Appends a problem when `got != want`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
    problems: &mut Vec<String>,
) {
    if got != want {
        problems.push(format!("{what}: got {got:?}, want {want:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_digests_parse() {
        for line in RECORDED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let mut parts = line.split_whitespace();
            let (w, s, d) = (parts.next(), parts.next(), parts.next());
            assert!(w.is_some() && parts.next().is_none(), "bad line {line:?}");
            let seed: u64 = s.unwrap().parse().expect("seed");
            assert_eq!(
                recorded_digest(w.unwrap(), seed),
                Some(u64::from_str_radix(d.unwrap(), 16).expect("hex digest"))
            );
        }
    }

    #[test]
    fn digest_gate_pins_the_first_op() {
        let tracer = Tracer::new();
        let ctx = Ctx {
            seed: 1,
            seconds: 0.0,
            trace_mode: false,
            tiny: true,
            tracer: &tracer,
        };
        let mut gate = DigestGate::new(&ctx, "forget-paper");
        let mut problems = Vec::new();
        gate.check(5, &mut problems);
        gate.check(5, &mut problems);
        assert!(problems.is_empty());
        gate.check(6, &mut problems);
        assert_eq!(problems.len(), 1);
        assert_eq!(gate.finish(), (Some(5), "tiny"));
    }
}
