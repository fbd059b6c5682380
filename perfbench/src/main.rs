//! End-to-end benchmark of the federated-unlearning stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <path>] [--tiny]
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! stdout, `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` every other op is traced and the metrics are the
//! per-layer ones (see [`PER_LAYER`]). The line before it is the effective
//! configuration. `--tiny` shrinks every shape for the benchmark's own
//! tests.
//!
//! Every knob is set here, never from the environment: the run refuses to
//! start when any `FUIOV_*` variable is set, pins the kernel pool to one
//! worker (results are bitwise thread-invariant, and width 1 halves the
//! run-to-run spread on a 2-vCPU host), selects the SIMD kernels and turns
//! obs counters on.
//!
//! Workloads: `forget-paper` and `forget-storm` ([`forget`]), `train-cell`
//! ([`cell`]) and `net-rounds` ([`net`]).

mod bench;
mod cell;
mod forget;
mod gen;
mod mem;
mod net;
mod stats;
mod trace;

use bench::{Ctx, Run};
use stats::{median, median_or_zero};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::{durations, self_times, OpBreakdown, Tracer};

/// Workload names with their RSS ceiling in MiB.
const WORKLOADS: [(&str, f64); 4] = [
    ("forget-paper", 1536.0),
    ("forget-storm", 4096.0),
    ("train-cell", 1024.0),
    ("net-rounds", 1024.0),
];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("op_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bytes_per_op", "B"),
    ("pass_rate", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. Counts are per op (per
/// round on `net-rounds`); a layer a workload bypasses reads zero.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("core.calibrate_ms", "ms"),
    ("core.backtrack_ms", "ms"),
    ("core.first_round_ms", "ms"),
    ("core.round_ms", "ms"),
    ("core.replay_rounds", "count"),
    ("core.hvp_fused_sweeps", "count"),
    ("core.stack_rebuilds", "count"),
    ("core.pair_refreshes", "count"),
    ("core.estimator_fallbacks", "count"),
    ("core.clip_activations", "count"),
    ("core.fallback_share", "ratio"),
    ("storage.scan_ms", "ms"),
    ("storage.spill_loads", "count"),
    ("storage.decode_cache_hits", "count"),
    ("storage.prefetches", "count"),
    ("storage.snapshots", "count"),
    ("storage.resident_mb", "MB"),
    ("storage.spilled_mb", "MB"),
    ("storage.cache_hit_share", "ratio"),
    ("jobs.submit_ms", "ms"),
    ("jobs.seal_step_ms", "ms"),
    ("jobs.plain_step_ms", "ms"),
    ("jobs.checkpoints_sealed", "count"),
    ("jobs.cross_job_sweeps", "count"),
    ("jobs.failed", "count"),
    ("nn.client_grad_ms", "ms"),
    ("fl.server_ms", "ms"),
    ("fl.upload_bytes_sign", "B"),
    ("fl.download_bytes", "B"),
    ("net.vehicle_grad_ms", "ms"),
    ("net.bytes_tx", "B"),
    ("net.bytes_rx", "B"),
    ("net.overhead_bytes_tx", "B"),
    ("net.overhead_bytes_rx", "B"),
    ("net.round_timeouts", "count"),
    ("net.stale_uploads", "count"),
    ("net.duplicate_uploads", "count"),
    ("net.torn_frames", "count"),
    ("net.vehicle_reconnects", "count"),
    ("self.bench_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.storage_ms", "ms"),
    ("self.jobs_ms", "ms"),
    ("self.nn_ms", "ms"),
    ("self.fl_ms", "ms"),
    ("self.net_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.glue_share", "ratio"),
    ("trace.spans_per_op", "count"),
    ("trace.ops", "count"),
];

/// Per-layer metrics that are obs counters of the same name, per op.
const COUNTERS: [&str; 24] = [
    "core.replay_rounds",
    "core.hvp_fused_sweeps",
    "core.stack_rebuilds",
    "core.pair_refreshes",
    "core.estimator_fallbacks",
    "core.clip_activations",
    "storage.spill_loads",
    "storage.decode_cache_hits",
    "storage.prefetches",
    "storage.snapshots",
    "jobs.checkpoints_sealed",
    "jobs.cross_job_sweeps",
    "jobs.failed",
    "fl.upload_bytes_sign",
    "fl.download_bytes",
    "net.bytes_tx",
    "net.bytes_rx",
    "net.overhead_bytes_tx",
    "net.overhead_bytes_rx",
    "net.round_timeouts",
    "net.stale_uploads",
    "net.duplicate_uploads",
    "net.torn_frames",
    "net.vehicle_reconnects",
];

/// Per-layer timings that are the median duration of a span.
const SPAN_TIMINGS: [(&str, &str); 10] = [
    ("core.calibrate_ms", "core.calibrate"),
    ("core.backtrack_ms", "core.backtrack"),
    ("core.first_round_ms", "core.first_round"),
    ("core.round_ms", "core.round"),
    ("storage.scan_ms", "storage.scan"),
    ("jobs.submit_ms", "jobs.submit"),
    ("jobs.seal_step_ms", "jobs.seal_step"),
    ("jobs.plain_step_ms", "jobs.plain_step"),
    ("nn.client_grad_ms", "nn.client_grad"),
    ("net.vehicle_grad_ms", "net.vehicle_grad"),
];

/// Layers whose summed self time per op is reported as `self.<layer>_ms`.
const LAYERS: [&str; 7] = ["bench", "core", "storage", "jobs", "nn", "fl", "net"];

const USAGE: &str =
    "usage: perfbench --workload <forget-paper|forget-storm|train-cell|net-rounds> \
--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] [--tiny]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    tiny: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut trace_out, mut tiny) = (None, false);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
        tiny,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite metric value as JSON (non-finite values become 0, and the
/// caller marks the run incorrect).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("op_ms", median_or_zero(&run.op_ms));
    m.insert("setup_s", median_or_zero(&run.setup_s));
    m.insert("peak_rss_mb", mem::peak_rss_mb().unwrap_or(0.0));
    m.insert("bytes_per_op", run.bytes_per_op as f64);
    let attempted = run.tally.attempted.max(1) as f64;
    m.insert("pass_rate", 1.0 - run.tally.failed as f64 / attempted);
    m
}

fn per_layer(run: &Run, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let spans = tracer.spans();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in COUNTERS {
        m.insert(name, run.counters.per_op(name));
    }
    let (hits, loads) = (
        run.counters.total("storage.decode_cache_hits") as f64,
        run.counters.total("storage.spill_loads") as f64,
    );
    m.insert(
        "storage.cache_hit_share",
        if hits + loads > 0.0 {
            hits / (hits + loads)
        } else {
            0.0
        },
    );
    for (metric, span) in SPAN_TIMINGS {
        m.insert(metric, median_or_zero(&durations(&spans, span)));
    }
    let selfs = self_times(&spans);
    let server: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "fl.round")
        .map(|s| selfs[&s.id])
        .collect();
    m.insert("fl.server_ms", median_or_zero(&server));
    let ops = OpBreakdown::new(&spans);
    for layer in LAYERS {
        let name: &'static str = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == format!("self.{layer}_ms"))
            .expect("every layer has a self metric");
        m.insert(name, median_or_zero(&ops.layer_ms(layer)));
    }
    let traced = median_or_zero(&run.traced_op_ms);
    let untraced = median(&run.op_ms);
    m.insert("trace.op_ms", traced);
    m.insert("trace.untraced_op_ms", untraced.unwrap_or(0.0));
    m.insert("trace.overhead_ms", untraced.map_or(0.0, |u| traced - u));
    m.insert("trace.glue_share", ops.glue_share());
    let in_trees = spans
        .iter()
        .filter(|s| s.root || s.parent.is_some())
        .count() as f64;
    m.insert(
        "trace.spans_per_op",
        if ops.ops.is_empty() {
            0.0
        } else {
            in_trees / ops.ops.len() as f64
        },
    );
    m.insert("trace.ops", ops.ops.len() as f64);
    for (name, v) in &run.layers {
        m.insert(name, *v);
    }
    m
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let env_knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("FUIOV_"))
        .collect();
    if !env_knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to start with {} set: every knob is set by the benchmark",
            env_knobs.join(", ")
        );
        std::process::exit(2);
    }
    fuiov_tensor::pool::set_threads(1);
    fuiov_tensor::simd::set_forced(Some(true));
    fuiov_obs::set_enabled(true);

    let ceiling = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map(|(_, c)| *c)
        .expect("workload validated");
    let watchdog = mem::Watchdog::start(ceiling);
    let tracer = Tracer::new();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace_mode: args.trace,
        tiny: args.tiny,
        tracer: &tracer,
    };
    let run = match args.workload.as_str() {
        "forget-paper" => forget::forget_paper(&ctx),
        "forget-storm" => forget::forget_storm(&ctx),
        "train-cell" => cell::train_cell(&ctx),
        "net-rounds" => net::net_rounds(&ctx),
        _ => unreachable!("workload validated"),
    };
    watchdog.stop();

    let (metrics, units): (BTreeMap<&str, f64>, &[(&str, &str)]) = if args.trace {
        (per_layer(&run, &tracer), &PER_LAYER)
    } else {
        (end_to_end(&run), &END_TO_END)
    };
    let mut correct = run.tally.failed == 0 && run.tally.attempted > 0;
    let mut body = Vec::new();
    for (name, unit) in units {
        let v = metrics.get(name).copied().unwrap_or(0.0);
        correct &= v.is_finite();
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        ));
    }

    if let Some(path) = &args.trace_out {
        if args.trace {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
    }
    for f in &run.tally.failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let mut config: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        (
            "shape".into(),
            if args.tiny { "tiny" } else { "paper" }.into(),
        ),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "pool_threads".into(),
            fuiov_tensor::pool::threads().to_string(),
        ),
        ("simd".into(), fuiov_tensor::simd::enabled().to_string()),
        ("obs".into(), fuiov_obs::enabled().to_string()),
        ("rss_ceiling_mb".into(), ceiling.to_string()),
        (
            "ops_measured".into(),
            (run.op_ms.len() + run.traced_op_ms.len()).to_string(),
        ),
        ("setups".into(), run.setup_s.len().to_string()),
        (
            "digest".into(),
            run.digest.map_or("none".into(), |d| format!("{d:016x}")),
        ),
        ("digest_reference".into(), run.reference.into()),
    ];
    config.extend(run.config.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let config: Vec<String> = config
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"kind\": \"config\", {}}}", config.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.attempted,
        run.tally.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_standard_invocation() {
        let a = args("--workload net-rounds --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("net-rounds", 7, 10.0, true)
        );
        assert!(!a.tiny && a.trace_out.is_none());
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload net-rounds --seed x --seconds 1 --trace 0",
            "--workload net-rounds --seed 1 --seconds -1 --trace 0",
            "--workload net-rounds --seed 1 --seconds 1 --trace 2",
            "--workload net-rounds --seed 1 --seconds 1",
            "--workload net-rounds --seed 1 --seconds 1 --trace 0 --bogus 3",
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn metric_tables_are_consistent() {
        for name in COUNTERS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
        for (name, _) in SPAN_TIMINGS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "duplicate per-layer name");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
