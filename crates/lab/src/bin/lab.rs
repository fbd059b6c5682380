//! `lab` — the scenario-lab CLI.
//!
//! ```text
//! lab run   [--matrix FILE] [--smoke] [--seed N] [--rows a,b] [--out DIR]
//! lab plan  [--matrix FILE] [--smoke] [--seed N] [--rows a,b] [--fingerprint]
//! lab check-bench [FILE...]
//! lab bench-smoke
//! ```
//!
//! `run` executes the selected slice of the matrix and writes three
//! artifacts under `--out` (default `target/lab`): `trials.jsonl` (one
//! RunReport line per trial), `tables.md` (one aggregated comparison
//! table per row), and `asserts.json` (machine-readable
//! shape-claim verdicts). The exit code is non-zero iff a claim failed —
//! that is the CI gate.
//!
//! `plan` prints the deterministic trial expansion without running
//! anything; `--fingerprint` prints only the FNV-1a fingerprint of the
//! whole plan (what the determinism tests and CI logs pin).
//!
//! `check-bench` re-validates recorded `BENCH_*.json` artifacts;
//! `bench-smoke` runs the bench suite in smoke mode (dispatcher on and
//! forced off) plus the one-cell transport sweep, then gates the
//! recorded artifacts — the single code path `scripts/tier1.sh
//! bench_smoke` now routes through.

use fuiov_lab::plan::{expand, plan_fingerprint, PlanFilter};
use fuiov_lab::{
    aggregate, bench_gate, check_asserts, outcomes_to_json, parse_matrix, render_table, run_trial,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_MATRIX: &str = "scenarios.jsonl";
const DEFAULT_OUT: &str = "target/lab";

fn usage() -> ExitCode {
    eprintln!(
        "usage: lab run [--matrix FILE] [--smoke] [--seed N] [--rows a,b] [--out DIR]\n\
         \x20      lab plan [--matrix FILE] [--smoke] [--seed N] [--rows a,b] [--fingerprint]\n\
         \x20      lab check-bench [FILE...]\n\
         \x20      lab bench-smoke"
    );
    ExitCode::from(2)
}

struct Args {
    matrix: PathBuf,
    filter: PlanFilter,
    out: PathBuf,
    fingerprint_only: bool,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let mut args = Args {
        matrix: PathBuf::from(DEFAULT_MATRIX),
        filter: PlanFilter::default(),
        out: PathBuf::from(DEFAULT_OUT),
        fingerprint_only: false,
    };
    while let Some(a) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--matrix" => args.matrix = PathBuf::from(value("--matrix")?),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--smoke" => args.filter.smoke_only = true,
            "--seed" => {
                let v = value("--seed")?;
                args.filter.seed_override =
                    Some(v.parse().map_err(|_| format!("bad --seed '{v}'"))?);
            }
            "--rows" => {
                let v = value("--rows")?;
                args.filter.row_ids = Some(v.split(',').map(str::to_string).collect());
            }
            "--fingerprint" => args.fingerprint_only = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn load_rows(path: &Path) -> Result<Vec<fuiov_lab::ScenarioRow>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_matrix(&src).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let rows = load_rows(&args.matrix)?;
    let plans = expand(&rows, &args.filter);
    if plans.is_empty() {
        return Err("no trials selected (empty matrix or over-narrow filter)".into());
    }
    println!(
        "lab: {} trial(s), plan fingerprint {:016x}",
        plans.len(),
        plan_fingerprint(&plans)
    );
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;

    let mut jsonl = String::new();
    let mut reports = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        println!(
            "lab: [{}/{}] {} / {} (task {}, seed {})",
            i + 1,
            plans.len(),
            plan.row_id,
            plan.variant,
            plan.task.name(),
            plan.seed
        );
        let report =
            run_trial(plan).map_err(|e| format!("{} / {}: {e}", plan.row_id, plan.variant))?;
        jsonl.push_str(&report.to_jsonl());
        jsonl.push('\n');
        reports.push(report);
    }

    let aggs = aggregate(&reports);
    let table = render_table(&rows, &aggs);
    let outcomes = check_asserts(&rows, &aggs);

    let write = |name: &str, contents: &str| -> Result<(), String> {
        let path = args.out.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("trials.jsonl", &jsonl)?;
    write("tables.md", &table)?;
    write("asserts.json", &outcomes_to_json(&outcomes))?;

    println!("\n{table}");
    let mut failed = 0usize;
    for o in &outcomes {
        let mark = if o.pass { "ok  " } else { "FAIL" };
        println!(
            "assert {mark} [{} / {}] {} (lhs={:.4}, rhs={:.4})",
            o.row_id, o.variant, o.expr, o.lhs, o.rhs
        );
        failed += usize::from(!o.pass);
    }
    println!(
        "lab: {} trial(s), {} claim(s), {} failed; artifacts in {}",
        reports.len(),
        outcomes.len(),
        failed,
        args.out.display()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_plan(args: &Args) -> Result<ExitCode, String> {
    let rows = load_rows(&args.matrix)?;
    let plans = expand(&rows, &args.filter);
    if args.fingerprint_only {
        println!("{:016x}", plan_fingerprint(&plans));
    } else {
        for p in &plans {
            println!("{:016x} {}", p.fingerprint(), p.canonical());
        }
        println!(
            "lab: {} trial(s), plan fingerprint {:016x}",
            plans.len(),
            plan_fingerprint(&plans)
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn check_bench_file(path: &Path) -> Result<String, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if name.contains("micro") {
        let s = bench_gate::check_micro(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(format!(
            "{}: ok ({} epoch(s), {} benchmark(s))",
            path.display(),
            s.epochs,
            s.benchmarks
        ))
    } else if name.contains("net") {
        let s = bench_gate::check_net(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(format!(
            "{}: ok ({} row(s) byte-reconciled)",
            path.display(),
            s.rows
        ))
    } else {
        Err(format!(
            "{}: no gate for this artifact (expected a BENCH_micro or BENCH_net file)",
            path.display()
        ))
    }
}

fn cmd_check_bench(files: &[String]) -> Result<ExitCode, String> {
    let defaults = ["BENCH_micro.json".to_string(), "BENCH_net.json".to_string()];
    let files: Vec<&String> = if files.is_empty() {
        defaults.iter().collect()
    } else {
        files.iter().collect()
    };
    for f in files {
        println!("{}", check_bench_file(Path::new(f))?);
    }
    Ok(ExitCode::SUCCESS)
}

fn spawn(cmd: &str, cmd_args: &[&str], envs: &[(&str, &str)]) -> Result<(), String> {
    let mut c = std::process::Command::new(cmd);
    c.args(cmd_args).stdout(std::process::Stdio::null());
    for (k, v) in envs {
        c.env(k, v);
    }
    let shown = format!("{cmd} {}", cmd_args.join(" "));
    let status = c.status().map_err(|e| format!("spawn '{shown}': {e}"))?;
    if !status.success() {
        return Err(format!("'{shown}' failed with {status}"));
    }
    Ok(())
}

fn cmd_bench_smoke() -> Result<ExitCode, String> {
    // Every benchmark (including its pre-timing bitwise differential
    // assertions) once with a minimal budget, on both kernel paths.
    let micro = ["bench", "-p", "fuiov-bench", "--bench", "micro"];
    println!("lab: bench smoke (dispatcher on)");
    spawn("cargo", &micro, &[("FUIOV_BENCH_SMOKE", "1")])?;
    println!("lab: bench smoke (FUIOV_SIMD=0)");
    spawn(
        "cargo",
        &micro,
        &[("FUIOV_BENCH_SMOKE", "1"), ("FUIOV_SIMD", "0")],
    )?;
    // One-cell transport sweep: its exact byte-reconciliation asserts
    // run on every pass even though the full BENCH_net sweep does not.
    println!("lab: transport smoke (exp_net)");
    spawn(
        "cargo",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "fuiov-bench",
            "--bin",
            "exp_net",
        ],
        &[("FUIOV_BENCH_SMOKE", "1")],
    )?;
    // And the recorded artifacts must still reconcile with the model.
    cmd_check_bench(&[])
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    let _prog = argv.next();
    let Some(cmd) = argv.next() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "run" | "plan" => match parse_args(argv) {
            Ok(args) if cmd == "run" => cmd_run(&args),
            Ok(args) => cmd_plan(&args),
            Err(e) => Err(e),
        },
        "check-bench" => cmd_check_bench(&argv.collect::<Vec<_>>()),
        "bench-smoke" => cmd_bench_smoke(),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lab: {e}");
            ExitCode::FAILURE
        }
    }
}
