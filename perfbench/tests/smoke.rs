//! The benchmark's own tests, at tiny shapes: every workload runs and
//! passes its correctness gate, prints every metric `BENCHMARK.json`
//! declares with the unit declared there, and in the traced run its spans
//! nest so that self times sum to each op's wall time, with layer spans
//! covering nearly all of it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Largest accepted share of traced op time that no layer span covers
/// (the self time of the ops' `bench` root spans). Measured at tiny
/// shapes: under 1 % on every workload.
const GLUE_CEILING: f64 = 0.05;

const WORKLOADS: [&str; 4] = ["forget-paper", "forget-storm", "train-cell", "net-rounds"];

/// A parsed JSON value (the container vendors no JSON crate).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text:?}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m
                .get(key)
                .unwrap_or_else(|| panic!("no key {key:?} in {self:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let Json::Str(k) = self.value() else {
                            panic!("object key")
                        };
                        self.eat(b':');
                        m.insert(k, self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() != b']' {
                    loop {
                        a.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(a)
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s[self.i] {
                        b'"' => break,
                        b'\\' => {
                            self.i += 1;
                            match self.s[self.i] {
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5])
                                        .unwrap();
                                    out.push(
                                        char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                            .unwrap(),
                                    );
                                    self.i += 4;
                                }
                                b'n' => out.push('\n'),
                                c => out.push(c as char),
                            }
                        }
                        c => out.push(c as char),
                    }
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text)
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

struct Output {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn perfbench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let tmp = std::env::temp_dir();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args).env("TMPDIR", &tmp);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("perfbench runs");
    Output {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

/// Runs `workload` at tiny shape and returns its result line.
fn run_tiny(workload: &str, trace: &str, trace_out: Option<&Path>) -> Json {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--tiny",
    ];
    let out_path;
    if let Some(p) = trace_out {
        out_path = p.to_string_lossy().into_owned();
        args.extend(["--trace-out", out_path.as_str()]);
    }
    let out = perfbench(&args, &[]);
    assert_eq!(out.code, Some(0), "{workload}: stderr {}", out.stderr);
    let lines: Vec<&str> = out.stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: stdout {:?}", out.stdout);
    let config = Json::parse(lines[lines.len() - 2]);
    assert_eq!(config.get("kind").str(), "config");
    assert_eq!(config.get("pool_threads").str(), "1");
    for key in ["nproc", "simd", "digest"] {
        config.get(key);
    }
    let result = Json::parse(lines[lines.len() - 1]);
    assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {}",
        out.stderr
    );
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    result
}

fn check_metrics(workload: &str, result: &Json, section: &str) -> BTreeMap<String, f64> {
    let metrics = result.get("metrics");
    let want = declared(section);
    assert_eq!(metrics.keys().len(), want.len(), "{workload}: metric count");
    want.iter()
        .map(|(name, unit)| {
            let m = metrics.get(name);
            assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
            let v = m.get("value").num();
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            (name.clone(), v)
        })
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        let m = check_metrics(w, &run_tiny(w, "0", None), "end_to_end");
        for (name, v) in &m {
            assert!(*v > 0.0, "{w}: end-to-end metric {name} is {v}");
        }
        assert_eq!(m["pass_rate"], 1.0, "{w}");
    }
}

/// One span as written to the span file.
struct SpanLine {
    id: u64,
    parent: Option<u64>,
    op: u64,
    root: bool,
    layer: String,
    start: f64,
    end: f64,
}

fn read_spans(path: &Path) -> Vec<SpanLine> {
    std::fs::read_to_string(path)
        .expect("span file written")
        .lines()
        .map(|line| {
            let s = Json::parse(line);
            SpanLine {
                id: s.get("id").num() as u64,
                parent: match s.get("parent") {
                    Json::Num(p) => Some(*p as u64),
                    _ => None,
                },
                op: s.get("op").num() as u64,
                root: s.get("root") == &Json::Bool(true),
                layer: s.get("layer").str().to_string(),
                start: s.get("start_us").num(),
                end: s.get("end_us").num(),
            }
        })
        .collect()
}

/// Self times sum to an op's wall time exactly when every child lies
/// inside its parent and siblings do not overlap; this checks both from
/// the span file, then that layer spans leave at most `GLUE_CEILING` of
/// the ops' wall time uncovered.
#[test]
fn traced_spans_nest_and_cover_each_op() {
    let dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    for w in WORKLOADS {
        let path = dir.join(format!("{w}.jsonl"));
        let m = check_metrics(w, &run_tiny(w, "1", Some(&path)), "per_layer");
        assert!(m["trace.ops"] >= 1.0, "{w}: no traced op");
        assert!(
            m["trace.glue_share"] <= GLUE_CEILING,
            "{w}: glue share {}",
            m["trace.glue_share"]
        );

        let spans = read_spans(&path);
        assert!(!spans.is_empty(), "{w}: empty span file");
        let by_id: BTreeMap<u64, &SpanLine> = spans.iter().map(|s| (s.id, s)).collect();
        assert_eq!(by_id.len(), spans.len(), "{w}: duplicate span ids");
        let mut children: BTreeMap<u64, Vec<&SpanLine>> = BTreeMap::new();
        for s in &spans {
            assert!(s.start <= s.end, "{w}: span {} ends before it starts", s.id);
            assert!(
                !(s.root && s.parent.is_some()),
                "{w}: root {} has a parent",
                s.id
            );
            let Some(p) = s.parent else { continue };
            let parent = by_id
                .get(&p)
                .unwrap_or_else(|| panic!("{w}: span {} has no parent {p}", s.id));
            assert_eq!(s.op, parent.op, "{w}: span {} left its op", s.id);
            assert!(
                parent.start <= s.start && s.end <= parent.end,
                "{w}: span {} [{}, {}] outside its parent [{}, {}]",
                s.id,
                s.start,
                s.end,
                parent.start,
                parent.end
            );
            children.entry(p).or_default().push(s);
        }
        for kids in children.values_mut() {
            kids.sort_by(|a, b| a.start.total_cmp(&b.start));
            for pair in kids.windows(2) {
                assert!(
                    pair[0].end <= pair[1].start,
                    "{w}: sibling spans {} and {} overlap",
                    pair[0].id,
                    pair[1].id
                );
            }
        }

        let (mut wall, mut glue) = (0.0, 0.0);
        for root in spans.iter().filter(|s| s.root) {
            let covered: f64 = children
                .get(&root.id)
                .map_or(0.0, |kids| kids.iter().map(|k| k.end - k.start).sum());
            wall += root.end - root.start;
            if root.layer == "bench" {
                glue += root.end - root.start - covered;
            }
        }
        assert!(wall > 0.0, "{w}: no op time");
        assert!(
            glue / wall <= GLUE_CEILING,
            "{w}: {glue} of {wall} us is glue"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn storm_exercises_jobs_and_paper_bypasses_them() {
    let storm = check_metrics(
        "forget-storm",
        &run_tiny("forget-storm", "1", None),
        "per_layer",
    );
    assert!(storm["jobs.cross_job_sweeps"] > 0.0);
    assert!(storm["jobs.checkpoints_sealed"] > 0.0);
    assert!(
        storm["storage.spill_loads"] > 0.0,
        "storm replays from spill"
    );
    let paper = check_metrics(
        "forget-paper",
        &run_tiny("forget-paper", "1", None),
        "per_layer",
    );
    assert_eq!(paper["jobs.cross_job_sweeps"], 0.0);
    assert_eq!(paper["jobs.checkpoints_sealed"], 0.0);
    assert_eq!(
        paper["storage.spill_loads"], 0.0,
        "paper history is resident"
    );
    assert!(paper["core.hvp_fused_sweeps"] > 0.0);
    assert!(paper["core.fallback_share"] <= 0.10);
}

#[test]
fn refuses_environment_knobs() {
    let out = perfbench(
        &[
            "--workload",
            "net-rounds",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--tiny",
        ],
        &[("FUIOV_THREADS", "4")],
    );
    assert_eq!(out.code, Some(2));
    assert!(out.stdout.is_empty(), "printed a result: {}", out.stdout);
    assert!(out.stderr.contains("FUIOV_THREADS"), "{}", out.stderr);
}

#[test]
fn rejects_unknown_workloads_without_a_result() {
    let out = perfbench(
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[],
    );
    assert_eq!(out.code, Some(2));
    assert!(out.stdout.is_empty());
}
