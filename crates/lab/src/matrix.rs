//! The declarative scenario matrix: `scenarios.jsonl`.
//!
//! One JSON object per line = one **row** of the experiment matrix. A row
//! names a base task, a seed, repeat count, the methods to compare, the
//! eval columns to attach, parameter overrides, named variants (each a
//! further override set), and machine-checkable **shape assertions** over
//! the aggregated results (Table I's "retraining ≥ fedrecover ≥ ours ≥
//! fedrecovery" ordering, CI-gated instead of eyeballed).
//!
//! Parsing is *strict*: unknown fields, duplicate row ids, wrong types,
//! and malformed asserts are typed errors ([`MatrixError`]), not silent
//! defaults — a typo'd knob must fail the matrix, never quietly run the
//! base configuration. Blank lines and `#`-prefixed comment lines are
//! skipped.

use crate::json::Json;
use std::fmt;

/// Why the matrix failed to parse. Line numbers are 1-based.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// The line is not valid JSON.
    BadJson {
        /// 1-based source line.
        line: usize,
        /// Parser message.
        msg: String,
    },
    /// The line parsed but is not a JSON object.
    NotAnObject {
        /// 1-based source line.
        line: usize,
    },
    /// A field name the schema does not know (typo guard).
    UnknownField {
        /// 1-based source line.
        line: usize,
        /// The offending key (dotted for nested contexts).
        field: String,
    },
    /// A required field is absent.
    MissingField {
        /// 1-based source line.
        line: usize,
        /// The absent key.
        field: &'static str,
    },
    /// A field holds the wrong JSON type.
    TypeMismatch {
        /// 1-based source line.
        line: usize,
        /// The offending key.
        field: String,
        /// What the schema wanted.
        expected: &'static str,
    },
    /// Two rows share an id.
    DuplicateId {
        /// 1-based source line of the second occurrence.
        line: usize,
        /// The repeated id.
        id: String,
    },
    /// `task` is not one of the known scenario constructors.
    UnknownTask {
        /// 1-based source line.
        line: usize,
        /// The unknown task name.
        task: String,
    },
    /// A `methods` entry is not a known method.
    UnknownMethod {
        /// 1-based source line.
        line: usize,
        /// The unknown method name.
        method: String,
    },
    /// An `evals` entry is not `kind.method` with known parts.
    UnknownEval {
        /// 1-based source line.
        line: usize,
        /// The unknown eval spec.
        eval: String,
    },
    /// An assert clause is malformed.
    BadAssert {
        /// 1-based source line.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// Two fields of a row rule each other out (`forget_malicious` next to
    /// a baseline that forgets a single client, `keep_models_every` next
    /// to FedRecover).
    Conflict {
        /// 1-based source line.
        line: usize,
        /// What conflicts.
        msg: String,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::BadJson { line, msg } => write!(f, "line {line}: bad JSON: {msg}"),
            MatrixError::NotAnObject { line } => {
                write!(f, "line {line}: each matrix line must be a JSON object")
            }
            MatrixError::UnknownField { line, field } => {
                write!(f, "line {line}: unknown field '{field}'")
            }
            MatrixError::MissingField { line, field } => {
                write!(f, "line {line}: missing required field '{field}'")
            }
            MatrixError::TypeMismatch {
                line,
                field,
                expected,
            } => write!(f, "line {line}: field '{field}' must be {expected}"),
            MatrixError::DuplicateId { line, id } => {
                write!(f, "line {line}: duplicate row id '{id}'")
            }
            MatrixError::UnknownTask { line, task } => {
                write!(f, "line {line}: unknown task '{task}'")
            }
            MatrixError::UnknownMethod { line, method } => {
                write!(f, "line {line}: unknown method '{method}'")
            }
            MatrixError::UnknownEval { line, eval } => {
                write!(f, "line {line}: unknown eval '{eval}'")
            }
            MatrixError::BadAssert { line, msg } => {
                write!(f, "line {line}: bad assert: {msg}")
            }
            MatrixError::Conflict { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// The base scenario a row builds on (a [`crate::scenario::Scenario`]
/// constructor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Task {
    /// `Scenario::tiny` — seconds, used by the `--smoke` slice.
    Tiny,
    /// `Scenario::digits` — reduced-scale MNIST substitute.
    Digits,
    /// `Scenario::signs` — reduced-scale GTSRB substitute.
    Signs,
    /// `Scenario::sensors` — the §VI IoT manoeuvre task.
    Sensors,
}

impl Task {
    /// Every task, in canonical order.
    pub const ALL: [Task; 4] = [Task::Tiny, Task::Digits, Task::Signs, Task::Sensors];

    /// The matrix-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            Task::Tiny => "tiny",
            Task::Digits => "digits",
            Task::Signs => "signs",
            Task::Sensors => "sensors",
        }
    }

    fn parse(s: &str) -> Option<Task> {
        Task::ALL.into_iter().find(|t| t.name() == s)
    }
}

/// An unlearning method (or model stage) the runner can score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Method {
    /// The pre-unlearning global model.
    Original,
    /// Right after backtracking (unlearned, unrecovered).
    Unlearned,
    /// Retraining from scratch on the remaining clients.
    Retraining,
    /// FedRecover (full gradients + exact corrections).
    FedRecover,
    /// FedRecovery (residual removal + noise).
    FedRecovery,
    /// The paper's scheme: sign-only replay with the Eq. 6 correction.
    Ours,
    /// Ablation: sign replay without the Hessian correction.
    SignReplay,
    /// NoT weight negation (arXiv 2503.05657), no fine-tuning.
    Not,
    /// NoT negation + sign-replay fine-tune from the stored history.
    NotFinetune,
}

impl Method {
    /// Every method, in canonical (table-column) order.
    pub const ALL: [Method; 9] = [
        Method::Original,
        Method::Unlearned,
        Method::Retraining,
        Method::FedRecover,
        Method::FedRecovery,
        Method::Ours,
        Method::SignReplay,
        Method::Not,
        Method::NotFinetune,
    ];

    /// The matrix-file spelling (also the metric suffix).
    pub fn name(self) -> &'static str {
        match self {
            Method::Original => "original",
            Method::Unlearned => "unlearned",
            Method::Retraining => "retraining",
            Method::FedRecover => "fedrecover",
            Method::FedRecovery => "fedrecovery",
            Method::Ours => "ours",
            Method::SignReplay => "sign_replay",
            Method::Not => "not",
            Method::NotFinetune => "not_finetune",
        }
    }

    fn parse(s: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Whether the method can only forget one client (the baselines
    /// score a single vehicle's removal), which rules out
    /// `forget_malicious`.
    fn single_client_only(self) -> bool {
        matches!(
            self,
            Method::Retraining | Method::FedRecover | Method::FedRecovery
        )
    }

    /// The Table-I comparison set (a row's default `methods`).
    pub fn table1_set() -> Vec<Method> {
        vec![
            Method::Original,
            Method::Unlearned,
            Method::Retraining,
            Method::FedRecover,
            Method::FedRecovery,
            Method::Ours,
        ]
    }
}

/// What an eval column measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EvalKind {
    /// Loss-threshold membership-inference advantage against the
    /// forgotten client's shard (Halimi et al., arXiv 2207.05521).
    Mia,
    /// Gradient-difference reconstruction error against the stored sign
    /// directions ("Verifiably Forgotten?", arXiv 2505.11097).
    Recon,
    /// Attack success rate of the trial's attack (label-flip or backdoor
    /// ASR, Fig. 1). A trial without an attack is a typed error.
    Asr,
}

impl EvalKind {
    /// The metric prefix ("mia" / "recon" / "asr").
    pub fn name(self) -> &'static str {
        match self {
            EvalKind::Mia => "mia",
            EvalKind::Recon => "recon",
            EvalKind::Asr => "asr",
        }
    }
}

/// One eval column: a kind applied to a method's output parameters.
/// Spelled `kind.method` in the matrix (e.g. `"mia.ours"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EvalSpec {
    /// What to measure.
    pub kind: EvalKind,
    /// Whose parameters to measure it on.
    pub method: Method,
}

impl EvalSpec {
    /// The metric name this eval reports under (`kind.method`).
    pub fn metric(&self) -> String {
        format!("{}.{}", self.kind.name(), self.method.name())
    }

    fn parse(s: &str) -> Option<EvalSpec> {
        let (kind, method) = s.split_once('.')?;
        let kind = match kind {
            "mia" => EvalKind::Mia,
            "recon" => EvalKind::Recon,
            "asr" => EvalKind::Asr,
            _ => return None,
        };
        Some(EvalSpec {
            kind,
            method: Method::parse(method)?,
        })
    }
}

/// Scenario and runner knobs a row (or variant) may override. Every
/// field is optional; `None` means "keep the task default". Unknown keys
/// are a [`MatrixError::UnknownField`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Overrides {
    /// Federated rounds `T`.
    pub rounds: Option<usize>,
    /// Number of vehicles.
    pub n_clients: Option<usize>,
    /// Training samples per vehicle.
    pub samples_per_client: Option<usize>,
    /// Held-out test-set size.
    pub n_test: Option<usize>,
    /// Image side length (window length for sensors).
    pub image_size: Option<usize>,
    /// Learning rate `η`.
    pub lr: Option<f32>,
    /// Client mini-batch size.
    pub batch_size: Option<usize>,
    /// Sign threshold `δ`.
    pub sign_delta: Option<f32>,
    /// The forgotten client's pinned join round `F`.
    pub forgotten_join_round: Option<usize>,
    /// Attack: `"label_flip"` or `"backdoor"`.
    pub attack: Option<String>,
    /// Fraction of malicious clients.
    pub malicious_fraction: Option<f32>,
    /// Dirichlet concentration for a non-IID split.
    pub non_iid_alpha: Option<f64>,
    /// Fraction of vehicles departing after `departure_round`.
    pub departing_fraction: Option<f32>,
    /// Round after which departing vehicles leave.
    pub departure_round: Option<usize>,
    /// Hierarchical aggregation fan-out (RSU/edge tree).
    pub tree_fanout: Option<usize>,
    /// Per-round participation fraction.
    pub sample_frac: Option<f64>,
    /// Recovery clip threshold `L`.
    pub clip_threshold: Option<f32>,
    /// `false` disables the Eq. 6 Hessian correction (sign replay).
    pub hessian_correction: Option<bool>,
    /// L-BFGS buffer size `s`.
    pub buffer_size: Option<usize>,
    /// L-BFGS pair refresh interval.
    pub pair_refresh_interval: Option<usize>,
    /// §IV-B's adaptive refresh: refresh the pairs early after this many
    /// rounds of growing divergence.
    pub divergence_patience: Option<usize>,
    /// Keep only every k-th global model (join rounds pinned) and recover
    /// by interpolating the missing ones — the checkpoint-thinning knob.
    pub keep_models_every: Option<usize>,
    /// Re-quantise the stored history at this δ before recovery
    /// (requires full gradients; the Fig. 3 sweep knob).
    pub requantize_delta: Option<f32>,
    /// Route "ours" through the concurrent unlearning job service.
    pub via_jobs: Option<bool>,
    /// Transport check: `"loopback"` runs a socket round after training
    /// and reconciles wire bytes against the comms model.
    pub transport: Option<String>,
}

/// `(key, expected-type)` schema used for both parsing and rendering.
const OVERRIDE_KEYS: &[(&str, &str)] = &[
    ("rounds", "uint"),
    ("n_clients", "uint"),
    ("samples_per_client", "uint"),
    ("n_test", "uint"),
    ("image_size", "uint"),
    ("lr", "number"),
    ("batch_size", "uint"),
    ("sign_delta", "number"),
    ("forgotten_join_round", "uint"),
    ("attack", "string"),
    ("malicious_fraction", "number"),
    ("non_iid_alpha", "number"),
    ("departing_fraction", "number"),
    ("departure_round", "uint"),
    ("tree_fanout", "uint"),
    ("sample_frac", "number"),
    ("clip_threshold", "number"),
    ("hessian_correction", "bool"),
    ("buffer_size", "uint"),
    ("pair_refresh_interval", "uint"),
    ("divergence_patience", "uint"),
    ("keep_models_every", "uint"),
    ("requantize_delta", "number"),
    ("via_jobs", "bool"),
    ("transport", "string"),
];

impl Overrides {
    fn from_json(v: &Json, line: usize, ctx: &str) -> Result<Overrides, MatrixError> {
        let obj = v.as_obj().ok_or(MatrixError::TypeMismatch {
            line,
            field: ctx.to_string(),
            expected: "an object",
        })?;
        let mut o = Overrides::default();
        for (key, val) in obj {
            let mismatch = |expected| MatrixError::TypeMismatch {
                line,
                field: format!("{ctx}.{key}"),
                expected,
            };
            let uint = |val: &Json, e| -> Result<usize, MatrixError> {
                Ok(val.as_u64().ok_or(mismatch(e))? as usize)
            };
            // The builders these values reach assert on zero counts,
            // non-positive rates and negative thresholds; refuse such
            // values here, where the error names the field, not there.
            let positive = |val: &Json| -> Result<usize, MatrixError> {
                match uint(val, "a positive integer")? {
                    0 => Err(mismatch("a positive integer")),
                    n => Ok(n),
                }
            };
            let positive_f32 = |val: &Json| -> Result<f32, MatrixError> {
                let x = val.as_f64().ok_or(mismatch("a positive finite number"))? as f32;
                (x > 0.0 && x.is_finite())
                    .then_some(x)
                    .ok_or(mismatch("a positive finite number"))
            };
            let non_negative_f32 = |val: &Json| -> Result<f32, MatrixError> {
                let x = val.as_f64().ok_or(mismatch("a non-negative number"))? as f32;
                (x >= 0.0)
                    .then_some(x)
                    .ok_or(mismatch("a non-negative number"))
            };
            match key.as_str() {
                "rounds" => o.rounds = Some(positive(val)?),
                "n_clients" => o.n_clients = Some(uint(val, "a non-negative integer")?),
                "samples_per_client" => {
                    o.samples_per_client = Some(uint(val, "a non-negative integer")?);
                }
                "n_test" => o.n_test = Some(uint(val, "a non-negative integer")?),
                "image_size" => o.image_size = Some(uint(val, "a non-negative integer")?),
                "lr" => o.lr = Some(positive_f32(val)?),
                "batch_size" => o.batch_size = Some(positive(val)?),
                "sign_delta" => o.sign_delta = Some(non_negative_f32(val)?),
                "forgotten_join_round" => {
                    o.forgotten_join_round = Some(uint(val, "a non-negative integer")?);
                }
                "attack" => {
                    let s = val.as_str().ok_or(mismatch("a string"))?;
                    if s != "label_flip" && s != "backdoor" {
                        return Err(MatrixError::TypeMismatch {
                            line,
                            field: format!("{ctx}.attack"),
                            expected: "\"label_flip\" or \"backdoor\"",
                        });
                    }
                    o.attack = Some(s.to_string());
                }
                "malicious_fraction" => {
                    o.malicious_fraction = Some(val.as_f64().ok_or(mismatch("a number"))? as f32);
                }
                "non_iid_alpha" => {
                    o.non_iid_alpha = Some(val.as_f64().ok_or(mismatch("a number"))?);
                }
                "departing_fraction" => {
                    o.departing_fraction = Some(val.as_f64().ok_or(mismatch("a number"))? as f32);
                }
                "departure_round" => o.departure_round = Some(uint(val, "a non-negative integer")?),
                "tree_fanout" => o.tree_fanout = Some(uint(val, "a non-negative integer")?),
                "sample_frac" => o.sample_frac = Some(val.as_f64().ok_or(mismatch("a number"))?),
                "clip_threshold" => o.clip_threshold = Some(positive_f32(val)?),
                "hessian_correction" => {
                    o.hessian_correction = Some(val.as_bool().ok_or(mismatch("a boolean"))?);
                }
                "buffer_size" => o.buffer_size = Some(positive(val)?),
                "pair_refresh_interval" => o.pair_refresh_interval = Some(positive(val)?),
                "divergence_patience" => {
                    o.divergence_patience = Some(uint(val, "a non-negative integer")?);
                }
                "keep_models_every" => o.keep_models_every = Some(positive(val)?),
                "requantize_delta" => o.requantize_delta = Some(non_negative_f32(val)?),
                "via_jobs" => o.via_jobs = Some(val.as_bool().ok_or(mismatch("a boolean"))?),
                "transport" => {
                    let s = val.as_str().ok_or(mismatch("a string"))?;
                    if s != "loopback" {
                        return Err(MatrixError::TypeMismatch {
                            line,
                            field: format!("{ctx}.transport"),
                            expected: "\"loopback\"",
                        });
                    }
                    o.transport = Some(s.to_string());
                }
                _ => {
                    return Err(MatrixError::UnknownField {
                        line,
                        field: format!("{ctx}.{key}"),
                    })
                }
            }
        }
        Ok(o)
    }

    /// Renders the set fields back to a JSON object in canonical
    /// (`OVERRIDE_KEYS`) order.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        let mut push_uint = |k: &str, v: Option<usize>| {
            if let Some(v) = v {
                pairs.push((k.to_string(), Json::Num(v as f64)));
            }
        };
        push_uint("rounds", self.rounds);
        push_uint("n_clients", self.n_clients);
        push_uint("samples_per_client", self.samples_per_client);
        push_uint("n_test", self.n_test);
        push_uint("image_size", self.image_size);
        if let Some(v) = self.lr {
            pairs.push(("lr".into(), Json::Num(f64::from(v))));
        }
        if let Some(v) = self.batch_size {
            pairs.push(("batch_size".into(), Json::Num(v as f64)));
        }
        if let Some(v) = self.sign_delta {
            pairs.push(("sign_delta".into(), Json::Num(f64::from(v))));
        }
        if let Some(v) = self.forgotten_join_round {
            pairs.push(("forgotten_join_round".into(), Json::Num(v as f64)));
        }
        if let Some(v) = &self.attack {
            pairs.push(("attack".into(), Json::Str(v.clone())));
        }
        if let Some(v) = self.malicious_fraction {
            pairs.push(("malicious_fraction".into(), Json::Num(f64::from(v))));
        }
        if let Some(v) = self.non_iid_alpha {
            pairs.push(("non_iid_alpha".into(), Json::Num(v)));
        }
        if let Some(v) = self.departing_fraction {
            pairs.push(("departing_fraction".into(), Json::Num(f64::from(v))));
        }
        if let Some(v) = self.departure_round {
            pairs.push(("departure_round".into(), Json::Num(v as f64)));
        }
        if let Some(v) = self.tree_fanout {
            pairs.push(("tree_fanout".into(), Json::Num(v as f64)));
        }
        if let Some(v) = self.sample_frac {
            pairs.push(("sample_frac".into(), Json::Num(v)));
        }
        if let Some(v) = self.clip_threshold {
            pairs.push(("clip_threshold".into(), Json::Num(f64::from(v))));
        }
        if let Some(v) = self.hessian_correction {
            pairs.push(("hessian_correction".into(), Json::Bool(v)));
        }
        if let Some(v) = self.buffer_size {
            pairs.push(("buffer_size".into(), Json::Num(v as f64)));
        }
        if let Some(v) = self.pair_refresh_interval {
            pairs.push(("pair_refresh_interval".into(), Json::Num(v as f64)));
        }
        if let Some(v) = self.divergence_patience {
            pairs.push(("divergence_patience".into(), Json::Num(v as f64)));
        }
        if let Some(v) = self.keep_models_every {
            pairs.push(("keep_models_every".into(), Json::Num(v as f64)));
        }
        if let Some(v) = self.requantize_delta {
            pairs.push(("requantize_delta".into(), Json::Num(f64::from(v))));
        }
        if let Some(v) = self.via_jobs {
            pairs.push(("via_jobs".into(), Json::Bool(v)));
        }
        if let Some(v) = &self.transport {
            pairs.push(("transport".into(), Json::Str(v.clone())));
        }
        Json::Obj(pairs)
    }

    /// This override set with `other`'s set fields layered on top
    /// (variant overrides win over row overrides).
    pub fn merged(&self, other: &Overrides) -> Overrides {
        macro_rules! pick {
            ($field:ident) => {
                other.$field.clone().or_else(|| self.$field.clone())
            };
        }
        Overrides {
            rounds: pick!(rounds),
            n_clients: pick!(n_clients),
            samples_per_client: pick!(samples_per_client),
            n_test: pick!(n_test),
            image_size: pick!(image_size),
            lr: pick!(lr),
            batch_size: pick!(batch_size),
            sign_delta: pick!(sign_delta),
            forgotten_join_round: pick!(forgotten_join_round),
            attack: pick!(attack),
            malicious_fraction: pick!(malicious_fraction),
            non_iid_alpha: pick!(non_iid_alpha),
            departing_fraction: pick!(departing_fraction),
            departure_round: pick!(departure_round),
            tree_fanout: pick!(tree_fanout),
            sample_frac: pick!(sample_frac),
            clip_threshold: pick!(clip_threshold),
            hessian_correction: pick!(hessian_correction),
            buffer_size: pick!(buffer_size),
            pair_refresh_interval: pick!(pair_refresh_interval),
            divergence_patience: pick!(divergence_patience),
            keep_models_every: pick!(keep_models_every),
            requantize_delta: pick!(requantize_delta),
            via_jobs: pick!(via_jobs),
            transport: pick!(transport),
        }
    }

    /// The names of every override key the schema knows.
    pub fn known_keys() -> impl Iterator<Item = &'static str> {
        OVERRIDE_KEYS.iter().map(|&(k, _)| k)
    }
}

/// A named variant: the row re-run with extra overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Variant label (unique within the row).
    pub name: String,
    /// Overrides layered on top of the row's.
    pub overrides: Overrides,
}

/// Comparison operator of a shape assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertOp {
    /// `lhs >= rhs - tol`.
    Ge,
    /// `lhs <= rhs + tol`.
    Le,
    /// `lhs > rhs - tol`.
    Gt,
    /// `lhs < rhs + tol`.
    Lt,
    /// `|lhs - rhs| <= tol`.
    Approx,
}

impl AssertOp {
    /// The matrix-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            AssertOp::Ge => ">=",
            AssertOp::Le => "<=",
            AssertOp::Gt => ">",
            AssertOp::Lt => "<",
            AssertOp::Approx => "~=",
        }
    }

    fn parse(s: &str) -> Option<AssertOp> {
        match s {
            ">=" => Some(AssertOp::Ge),
            "<=" => Some(AssertOp::Le),
            ">" => Some(AssertOp::Gt),
            "<" => Some(AssertOp::Lt),
            "~=" => Some(AssertOp::Approx),
            _ => None,
        }
    }
}

/// Right-hand side of an assertion: another metric or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Mean of a metric column (e.g. `acc.ours`).
    Metric(String),
    /// A literal number.
    Const(f64),
}

/// A machine-checkable claim over the row's aggregated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeAssert {
    /// Left-hand metric name.
    pub lhs: String,
    /// Comparison.
    pub op: AssertOp,
    /// Right-hand metric or constant.
    pub rhs: Operand,
    /// Slack applied in the comparison (noise allowance across seeds).
    pub tol: f64,
}

impl ShapeAssert {
    /// Human-readable form (`acc.retraining >= acc.ours ±0.05`).
    pub fn expr(&self) -> String {
        let rhs = match &self.rhs {
            Operand::Metric(m) => m.clone(),
            Operand::Const(c) => format!("{c}"),
        };
        format!("{} {} {} ±{}", self.lhs, self.op.name(), rhs, self.tol)
    }

    fn from_json(v: &Json, line: usize) -> Result<ShapeAssert, MatrixError> {
        let bad = |msg: &str| MatrixError::BadAssert {
            line,
            msg: msg.to_string(),
        };
        let obj = v.as_obj().ok_or_else(|| bad("must be an object"))?;
        let mut lhs = None;
        let mut op = None;
        let mut rhs = None;
        let mut tol = 0.0;
        for (k, val) in obj {
            match k.as_str() {
                "lhs" => {
                    lhs = Some(
                        val.as_str()
                            .ok_or_else(|| bad("'lhs' must be a metric name"))?
                            .to_string(),
                    );
                }
                "op" => {
                    let s = val.as_str().ok_or_else(|| bad("'op' must be a string"))?;
                    op = Some(
                        AssertOp::parse(s)
                            .ok_or_else(|| bad("'op' must be one of >=, <=, >, <, ~="))?,
                    );
                }
                "rhs" => {
                    rhs = Some(match val {
                        Json::Str(s) => Operand::Metric(s.clone()),
                        Json::Num(n) => Operand::Const(*n),
                        _ => return Err(bad("'rhs' must be a metric name or a number")),
                    });
                }
                "tol" => {
                    tol = val.as_f64().ok_or_else(|| bad("'tol' must be a number"))?;
                }
                other => {
                    return Err(MatrixError::UnknownField {
                        line,
                        field: format!("asserts.{other}"),
                    })
                }
            }
        }
        Ok(ShapeAssert {
            lhs: lhs.ok_or_else(|| bad("missing 'lhs'"))?,
            op: op.ok_or_else(|| bad("missing 'op'"))?,
            rhs: rhs.ok_or_else(|| bad("missing 'rhs'"))?,
            tol,
        })
    }

    /// Renders back to the matrix-file object form.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("lhs".to_string(), Json::Str(self.lhs.clone())),
            ("op".to_string(), Json::Str(self.op.name().to_string())),
        ];
        pairs.push((
            "rhs".to_string(),
            match &self.rhs {
                Operand::Metric(m) => Json::Str(m.clone()),
                Operand::Const(c) => Json::Num(*c),
            },
        ));
        if self.tol != 0.0 {
            pairs.push(("tol".to_string(), Json::Num(self.tol)));
        }
        Json::Obj(pairs)
    }
}

/// One row of the scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Unique row id (the table/report key).
    pub id: String,
    /// Base scenario constructor.
    pub task: Task,
    /// Trials per variant (seeds `base_seed..base_seed+repeats`).
    pub repeats: u32,
    /// First seed of the repeat range.
    pub base_seed: u64,
    /// Whether the row is part of the CI `--smoke` slice.
    pub smoke: bool,
    /// Free-text note (carried through, never interpreted).
    pub note: String,
    /// Methods to score (defaults to the Table-I set).
    pub methods: Vec<Method>,
    /// Extra eval columns.
    pub evals: Vec<EvalSpec>,
    /// Forget every attacker at once (Fig. 1) instead of the single
    /// designated client.
    pub forget_malicious: bool,
    /// Row-level overrides.
    pub overrides: Overrides,
    /// Variants (empty = just the base configuration).
    pub variants: Vec<Variant>,
    /// CI-gated shape claims over the aggregated metrics.
    pub asserts: Vec<ShapeAssert>,
}

impl ScenarioRow {
    /// Renders the row back to its matrix-file line (canonical field
    /// order; defaults omitted).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("task".into(), Json::Str(self.task.name().into())),
        ];
        if self.repeats != 1 {
            pairs.push(("repeats".into(), Json::Num(f64::from(self.repeats))));
        }
        if self.base_seed != DEFAULT_SEED {
            pairs.push(("base_seed".into(), Json::Num(self.base_seed as f64)));
        }
        if self.smoke {
            pairs.push(("smoke".into(), Json::Bool(true)));
        }
        if !self.note.is_empty() {
            pairs.push(("note".into(), Json::Str(self.note.clone())));
        }
        if self.methods != Method::table1_set() {
            pairs.push((
                "methods".into(),
                Json::Arr(
                    self.methods
                        .iter()
                        .map(|m| Json::Str(m.name().into()))
                        .collect(),
                ),
            ));
        }
        if !self.evals.is_empty() {
            pairs.push((
                "evals".into(),
                Json::Arr(self.evals.iter().map(|e| Json::Str(e.metric())).collect()),
            ));
        }
        if self.forget_malicious {
            pairs.push(("forget_malicious".into(), Json::Bool(true)));
        }
        if self.overrides != Overrides::default() {
            pairs.push(("overrides".into(), self.overrides.to_json()));
        }
        if !self.variants.is_empty() {
            pairs.push((
                "variants".into(),
                Json::Arr(
                    self.variants
                        .iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(v.name.clone())),
                                ("overrides".into(), v.overrides.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.asserts.is_empty() {
            pairs.push((
                "asserts".into(),
                Json::Arr(self.asserts.iter().map(ShapeAssert::to_json).collect()),
            ));
        }
        Json::Obj(pairs)
    }
}

/// Default `base_seed` when a row omits it (every reproduction in
/// `EXPERIMENTS.md` runs at this seed).
pub const DEFAULT_SEED: u64 = 42;

fn parse_row(v: &Json, line: usize) -> Result<ScenarioRow, MatrixError> {
    let obj = v.as_obj().ok_or(MatrixError::NotAnObject { line })?;
    let mut id = None;
    let mut task = None;
    let mut repeats = 1u32;
    let mut base_seed = DEFAULT_SEED;
    let mut smoke = false;
    let mut note = String::new();
    let mut methods = Method::table1_set();
    let mut evals = Vec::new();
    let mut forget_malicious = false;
    let mut overrides = Overrides::default();
    let mut variants = Vec::new();
    let mut asserts = Vec::new();

    for (key, val) in obj {
        let mismatch = |expected| MatrixError::TypeMismatch {
            line,
            field: key.clone(),
            expected,
        };
        match key.as_str() {
            "id" => id = Some(val.as_str().ok_or(mismatch("a string"))?.to_string()),
            "task" => {
                let s = val.as_str().ok_or(mismatch("a string"))?;
                task = Some(Task::parse(s).ok_or(MatrixError::UnknownTask {
                    line,
                    task: s.to_string(),
                })?);
            }
            "repeats" => {
                let n = val.as_u64().ok_or(mismatch("a positive integer"))?;
                if n == 0 || n > u64::from(u32::MAX) {
                    return Err(mismatch("a positive integer"));
                }
                repeats = n as u32;
            }
            "base_seed" => base_seed = val.as_u64().ok_or(mismatch("a non-negative integer"))?,
            "smoke" => smoke = val.as_bool().ok_or(mismatch("a boolean"))?,
            "note" => note = val.as_str().ok_or(mismatch("a string"))?.to_string(),
            "methods" => {
                let arr = val.as_arr().ok_or(mismatch("an array of method names"))?;
                methods = arr
                    .iter()
                    .map(|m| {
                        let s = m.as_str().ok_or(MatrixError::TypeMismatch {
                            line,
                            field: "methods[]".to_string(),
                            expected: "a string",
                        })?;
                        Method::parse(s).ok_or(MatrixError::UnknownMethod {
                            line,
                            method: s.to_string(),
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "evals" => {
                let arr = val.as_arr().ok_or(mismatch("an array of eval names"))?;
                evals = arr
                    .iter()
                    .map(|e| {
                        let s = e.as_str().ok_or(MatrixError::TypeMismatch {
                            line,
                            field: "evals[]".to_string(),
                            expected: "a string",
                        })?;
                        EvalSpec::parse(s).ok_or(MatrixError::UnknownEval {
                            line,
                            eval: s.to_string(),
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "forget_malicious" => forget_malicious = val.as_bool().ok_or(mismatch("a boolean"))?,
            "overrides" => overrides = Overrides::from_json(val, line, "overrides")?,
            "variants" => {
                let arr = val
                    .as_arr()
                    .ok_or(mismatch("an array of variant objects"))?;
                for (i, item) in arr.iter().enumerate() {
                    let vobj = item.as_obj().ok_or(MatrixError::TypeMismatch {
                        line,
                        field: format!("variants[{i}]"),
                        expected: "an object",
                    })?;
                    let mut name = None;
                    let mut v_over = Overrides::default();
                    for (vk, vv) in vobj {
                        match vk.as_str() {
                            "name" => {
                                name = Some(
                                    vv.as_str()
                                        .ok_or(MatrixError::TypeMismatch {
                                            line,
                                            field: format!("variants[{i}].name"),
                                            expected: "a string",
                                        })?
                                        .to_string(),
                                );
                            }
                            "overrides" => {
                                v_over = Overrides::from_json(vv, line, &format!("variants[{i}]"))?;
                            }
                            other => {
                                return Err(MatrixError::UnknownField {
                                    line,
                                    field: format!("variants[{i}].{other}"),
                                })
                            }
                        }
                    }
                    let name = name.ok_or(MatrixError::MissingField {
                        line,
                        field: "variants[].name",
                    })?;
                    if variants.iter().any(|v: &Variant| v.name == name) {
                        return Err(MatrixError::BadAssert {
                            line,
                            msg: format!("duplicate variant name '{name}'"),
                        });
                    }
                    variants.push(Variant {
                        name,
                        overrides: v_over,
                    });
                }
            }
            "asserts" => {
                let arr = val.as_arr().ok_or(mismatch("an array of assert objects"))?;
                asserts = arr
                    .iter()
                    .map(|a| ShapeAssert::from_json(a, line))
                    .collect::<Result<_, _>>()?;
            }
            other => {
                return Err(MatrixError::UnknownField {
                    line,
                    field: other.to_string(),
                })
            }
        }
    }

    let thinned = std::iter::once(&overrides)
        .chain(variants.iter().map(|v| &v.overrides))
        .any(|o| o.keep_models_every.is_some());
    let conflict = methods
        .iter()
        .chain(evals.iter().map(|e| &e.method))
        .find_map(|m| {
            let (field, why) = if forget_malicious && m.single_client_only() {
                ("forget_malicious", "forgets one client")
            } else if thinned && *m == Method::FedRecover {
                ("keep_models_every", "replays every stored model")
            } else {
                return None;
            };
            Some(format!(
                "{field} cannot run with '{}', which {why}",
                m.name()
            ))
        });
    if let Some(msg) = conflict {
        return Err(MatrixError::Conflict { line, msg });
    }

    Ok(ScenarioRow {
        id: id.ok_or(MatrixError::MissingField { line, field: "id" })?,
        task: task.ok_or(MatrixError::MissingField {
            line,
            field: "task",
        })?,
        repeats,
        base_seed,
        smoke,
        note,
        methods,
        evals,
        forget_malicious,
        overrides,
        variants,
        asserts,
    })
}

/// Parses a complete `scenarios.jsonl` matrix. Blank lines and lines
/// starting with `#` are skipped.
///
/// # Errors
///
/// Returns the first [`MatrixError`] encountered, with its 1-based line.
pub fn parse_matrix(src: &str) -> Result<Vec<ScenarioRow>, MatrixError> {
    let mut rows: Vec<ScenarioRow> = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let v = Json::parse(trimmed).map_err(|e| MatrixError::BadJson {
            line,
            msg: e.to_string(),
        })?;
        let row = parse_row(&v, line)?;
        if rows.iter().any(|r| r.id == row.id) {
            return Err(MatrixError::DuplicateId { line, id: row.id });
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Renders rows back to matrix-file text (one canonical JSON line each).
pub fn render_matrix(rows: &[ScenarioRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json().render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_row_gets_defaults() {
        let rows = parse_matrix(r#"{"id": "t", "task": "tiny"}"#).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.repeats, 1);
        assert_eq!(r.base_seed, DEFAULT_SEED);
        assert!(!r.smoke);
        assert_eq!(r.methods, Method::table1_set());
        assert!(r.variants.is_empty());
    }

    #[test]
    fn unknown_field_is_a_typed_error() {
        let err = parse_matrix(r#"{"id": "t", "task": "tiny", "sede": 1}"#).unwrap_err();
        assert_eq!(
            err,
            MatrixError::UnknownField {
                line: 1,
                field: "sede".into()
            }
        );
    }

    #[test]
    fn unknown_override_is_a_typed_error_with_context() {
        let err =
            parse_matrix(r#"{"id": "t", "task": "tiny", "overrides": {"runds": 3}}"#).unwrap_err();
        assert_eq!(
            err,
            MatrixError::UnknownField {
                line: 1,
                field: "overrides.runds".into()
            }
        );
    }

    #[test]
    fn duplicate_ids_are_rejected_with_the_second_line() {
        let src =
            "{\"id\": \"a\", \"task\": \"tiny\"}\n# comment\n{\"id\": \"a\", \"task\": \"digits\"}";
        let err = parse_matrix(src).unwrap_err();
        assert_eq!(
            err,
            MatrixError::DuplicateId {
                line: 3,
                id: "a".into()
            }
        );
    }

    #[test]
    fn full_row_round_trips() {
        let src = concat!(
            r#"{"id":"table1_digits","task":"digits","repeats":3,"base_seed":7,"smoke":true,"#,
            r#""methods":["ours","sign_replay","not"],"evals":["mia.ours","recon.ours","asr.ours"],"#,
            r#""forget_malicious":true,"overrides":{"rounds":20,"lr":0.05,"hessian_correction":false,"#,
            r#""divergence_patience":3,"keep_models_every":5},"#,
            r#""variants":[{"name":"fanout4","overrides":{"tree_fanout":4}}],"#,
            r#""asserts":[{"lhs":"acc.ours","op":">=","rhs":"acc.unlearned","tol":0.05}]}"#
        );
        let rows = parse_matrix(src).unwrap();
        let rendered = render_matrix(&rows);
        let reparsed = parse_matrix(&rendered).unwrap();
        assert_eq!(rows, reparsed);
    }

    #[test]
    fn bad_types_are_type_mismatches() {
        let err = parse_matrix(r#"{"id": "t", "task": "tiny", "repeats": "two"}"#).unwrap_err();
        assert!(matches!(err, MatrixError::TypeMismatch { .. }), "{err}");
        let err =
            parse_matrix(r#"{"id": "t", "task": "tiny", "overrides": {"lr": true}}"#).unwrap_err();
        assert!(matches!(err, MatrixError::TypeMismatch { .. }), "{err}");
        let err = parse_matrix(r#"{"id":"t","task":"tiny","overrides":{"keep_models_every":0}}"#)
            .unwrap_err();
        assert!(matches!(err, MatrixError::TypeMismatch { .. }), "{err}");
    }

    #[test]
    fn conflicting_fields_are_typed_errors() {
        let err = parse_matrix(r#"{"id":"t","task":"tiny","forget_malicious":true}"#).unwrap_err();
        assert!(
            matches!(err, MatrixError::Conflict { line: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("retraining"), "{err}");
        let err = parse_matrix(concat!(
            r#"{"id":"t","task":"tiny","forget_malicious":true,"methods":["ours"],"#,
            r#""evals":["asr.fedrecover"]}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains("fedrecover"), "{err}");
        let err = parse_matrix(concat!(
            r#"{"id":"t","task":"tiny","methods":["fedrecover"],"#,
            r#""variants":[{"name":"k2","overrides":{"keep_models_every":2}}]}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains("keep_models_every"), "{err}");
    }

    #[test]
    fn unknown_task_method_eval_are_typed() {
        assert!(matches!(
            parse_matrix(r#"{"id":"t","task":"mnist"}"#).unwrap_err(),
            MatrixError::UnknownTask { .. }
        ));
        assert!(matches!(
            parse_matrix(r#"{"id":"t","task":"tiny","methods":["sgd"]}"#).unwrap_err(),
            MatrixError::UnknownMethod { .. }
        ));
        assert!(matches!(
            parse_matrix(r#"{"id":"t","task":"tiny","evals":["mia"]}"#).unwrap_err(),
            MatrixError::UnknownEval { .. }
        ));
    }
}
