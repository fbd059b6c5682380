//! Trial execution: one [`TrialPlan`] in, one [`TrialReport`] out.
//!
//! The runner drives the facade — [`Scenario`] training, the
//! backtrack/recover pipeline, every baseline, the job service, and the
//! loopback transport — addressed entirely through scenario fields.
//! Each method follows the recipe of the experiment it reproduces (same
//! configs, same seed streams); `crates/lab/tests/parity.rs` pins the
//! outputs bitwise.
//!
//! Every trial emits one JSON line: metrics, FNV-1a parameter digests
//! per method (the golden-trace hash family), and the windowed
//! observability counters of the run (the embedded RunReport). The
//! training traffic of a trial lives in those counters
//! (`fl.participant_rounds`, `fl.download_bytes`,
//! `fl.upload_bytes_{full,sign}`).

use crate::json::Json;
use crate::matrix::{EvalKind, Method, Task};
use crate::plan::TrialPlan;
use crate::scenario::{ours_config, Attack, Scenario};
use fuiov_attacks::{backdoor_asr, label_flip_asr, reconstruction_error, Backdoor, LabelFlip};
use fuiov_baselines::{
    fedrecover, fedrecovery, not_unlearn, retrain, FedRecoverConfig, FedRecoveryConfig,
};
use fuiov_core::{
    backtrack_set, membership_advantage, recover_set, ClientPoolOracle, JobConfig, JobService,
    NoOracle, RecoveryConfig,
};
use fuiov_fl::comms::round_bytes;
use fuiov_fl::{Client, FlConfig, Server};
use fuiov_net::{NetAddr, NetConfig, NetServer, NetVehicle, UploadMode, VehicleConfig};
use fuiov_obs::Snapshot;
use fuiov_storage::HistoryStore;
use fuiov_testkit::digest_params;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Why a trial cannot run: its plan asks for something its scenario does
/// not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialError {
    /// An `asr.*` eval column on a trial without an attack.
    AsrWithoutAttack {
        /// The eval column (`asr.<method>`).
        eval: String,
    },
    /// `forget_malicious` on a trial without malicious clients.
    NoMaliciousClients,
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialError::AsrWithoutAttack { eval } => {
                write!(f, "eval '{eval}' needs an attack (set overrides.attack)")
            }
            TrialError::NoMaliciousClients => f.write_str(
                "forget_malicious needs malicious clients (set attack and malicious_fraction)",
            ),
        }
    }
}

impl std::error::Error for TrialError {}

/// The outcome of one trial: everything the aggregator (and the JSONL
/// artifact) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReport {
    /// Owning row id.
    pub row_id: String,
    /// Variant label.
    pub variant: String,
    /// Task name.
    pub task: String,
    /// The trial's seed.
    pub seed: u64,
    /// Repeat index.
    pub repeat: u32,
    /// Scalar results (`acc.*`, `mia.*`, `recon.*`, `replay.*`, …).
    pub metrics: BTreeMap<String, f64>,
    /// FNV-1a digests of each method's output parameters (hex in JSONL) —
    /// the bitwise identity of the trial.
    pub digests: BTreeMap<String, String>,
    /// Observability counters recorded during the trial (windowed — the
    /// embedded RunReport).
    pub counters: BTreeMap<String, u64>,
}

impl TrialReport {
    /// One JSON line (the per-trial artifact format).
    pub fn to_jsonl(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let digests = Json::Obj(
            self.digests
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        Json::Obj(vec![
            ("row".into(), Json::Str(self.row_id.clone())),
            ("variant".into(), Json::Str(self.variant.clone())),
            ("task".into(), Json::Str(self.task.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("repeat".into(), Json::Num(f64::from(self.repeat))),
            ("metrics".into(), metrics),
            ("digests".into(), digests),
            ("counters".into(), counters),
        ])
        .render()
    }

    /// Parses a line produced by [`TrialReport::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a well-formed trial record.
    pub fn parse_jsonl(line: &str) -> Result<TrialReport, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let str_field = |k: &str| -> Result<String, String> {
            Ok(v.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("missing string field '{k}'"))?
                .to_string())
        };
        let mut metrics = BTreeMap::new();
        for (k, m) in v.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            metrics.insert(
                k.clone(),
                m.as_f64().ok_or(format!("metric '{k}' not a number"))?,
            );
        }
        let mut digests = BTreeMap::new();
        for (k, d) in v.get("digests").and_then(Json::as_obj).unwrap_or(&[]) {
            digests.insert(
                k.clone(),
                d.as_str()
                    .ok_or(format!("digest '{k}' not a string"))?
                    .to_string(),
            );
        }
        let mut counters = BTreeMap::new();
        for (k, c) in v.get("counters").and_then(Json::as_obj).unwrap_or(&[]) {
            counters.insert(
                k.clone(),
                c.as_u64().ok_or(format!("counter '{k}' not a u64"))?,
            );
        }
        Ok(TrialReport {
            row_id: str_field("row")?,
            variant: str_field("variant")?,
            task: str_field("task")?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("missing 'seed'")?,
            repeat: v
                .get("repeat")
                .and_then(Json::as_u64)
                .ok_or("missing 'repeat'")? as u32,
            metrics,
            digests,
            counters,
        })
    }
}

/// Builds the concrete [`Scenario`] a plan describes.
pub fn scenario_of(plan: &TrialPlan) -> Scenario {
    let mut sc = match plan.task {
        Task::Tiny => Scenario::tiny(plan.seed),
        Task::Digits => Scenario::digits(plan.seed),
        Task::Signs => Scenario::signs(plan.seed),
        Task::Sensors => Scenario::sensors(plan.seed),
    };
    let o = &plan.overrides;
    if let Some(v) = o.rounds {
        sc.rounds = v;
    }
    if let Some(v) = o.n_clients {
        sc.n_clients = v;
    }
    if let Some(v) = o.samples_per_client {
        sc.samples_per_client = v;
    }
    if let Some(v) = o.n_test {
        sc.n_test = v;
    }
    if let Some(v) = o.image_size {
        sc.image_size = v;
    }
    if let Some(v) = o.lr {
        sc.lr = v;
    }
    if let Some(v) = o.batch_size {
        sc.batch_size = v;
    }
    if let Some(v) = o.sign_delta {
        sc.sign_delta = v;
    }
    if let Some(v) = o.forgotten_join_round {
        sc.forgotten_join_round = v;
    }
    match o.attack.as_deref() {
        Some("label_flip") => sc.attack = Some(Attack::LabelFlip(LabelFlip::paper_default())),
        Some("backdoor") => {
            // The paper's black patch cannot show on the synthetic digits'
            // black background; the bright patch is the visible
            // equivalent (DESIGN.md §2).
            let mut backdoor = Backdoor::paper_default(0.5);
            backdoor.trigger.value = 1.0;
            sc.attack = Some(Attack::Backdoor(backdoor));
        }
        _ => {}
    }
    if let Some(v) = o.malicious_fraction {
        sc.malicious_fraction = v;
    }
    if let Some(v) = o.non_iid_alpha {
        sc.non_iid_alpha = Some(v);
    }
    if let Some(v) = o.departing_fraction {
        sc.departing_fraction = v;
    }
    if let Some(v) = o.departure_round {
        sc.departure_round = v;
    }
    if let Some(v) = o.tree_fanout {
        sc.tree_fanout = Some(v);
    }
    if let Some(v) = o.sample_frac {
        sc.sample_frac = Some(v);
    }
    // Full gradients are needed by the full-gradient baselines and the
    // re-quantisation knob; table1_row forces them on too.
    if plan.methods.contains(&Method::FedRecover)
        || plan.methods.contains(&Method::FedRecovery)
        || o.requantize_delta.is_some()
    {
        sc.keep_full_gradients = true;
    }
    sc
}

/// The "ours" recovery configuration for a plan: the calibrated paper
/// defaults of [`ours_config`] with the row's recovery knobs applied.
fn recovery_cfg(plan: &TrialPlan, history: &HistoryStore, lr: f32) -> RecoveryConfig {
    let mut cfg = ours_config(history, lr);
    if let Some(l) = plan.overrides.clip_threshold {
        cfg = cfg.clip_threshold(l);
    }
    if plan.overrides.hessian_correction == Some(false) {
        cfg = cfg.without_hessian();
    }
    if let Some(s) = plan.overrides.buffer_size {
        cfg = cfg.buffer_size(s);
    }
    if let Some(r) = plan.overrides.pair_refresh_interval {
        cfg = cfg.pair_refresh_interval(r);
    }
    if let Some(p) = plan.overrides.divergence_patience {
        cfg = cfg.divergence_patience(Some(p));
    }
    if plan.overrides.keep_models_every.is_some() {
        cfg = cfg.interpolate_missing_models(true);
    }
    cfg
}

/// A deterministic, allocation-light client for the loopback transport
/// check (the trial times nothing, so no pacing).
struct WireClient {
    id: usize,
}

impl Client for WireClient {
    fn id(&self) -> usize {
        self.id
    }

    fn weight(&self) -> f32 {
        1.0
    }

    fn gradient(&mut self, params: &[f32], round: usize) -> Vec<f32> {
        let bias = (self.id * 131 + round) as f32 * 1e-3;
        params.iter().map(|p| p * 1e-2 + bias).collect()
    }
}

/// One sign-mode loopback round at the scenario's model dimension and
/// fleet size; panics unless wire bytes reconcile exactly with
/// [`round_bytes`]. Returns `(tx_payload, rx_payload)`.
fn loopback_check(dim: usize, clients: usize) -> (u64, u64) {
    let rounds = 1usize;
    let cfg = NetConfig::new(NetAddr::parse("tcp:127.0.0.1:0"), clients)
        .with_mode(UploadMode::Sign2Bit)
        .with_deadline(Duration::from_secs(30));
    let mut net = NetServer::bind(cfg).expect("bind loopback");
    let addr = net.local_addr().clone();
    let vehicles: Vec<_> = (0..clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let vcfg = VehicleConfig::new(addr, 7).with_sign_uploads(1e-3);
                NetVehicle::new(vcfg, Box::new(WireClient { id }), dim)
                    .run()
                    .expect("vehicle run")
            })
        })
        .collect();
    let mut fl = Server::new(FlConfig::new(rounds, 0.1), vec![0.01; dim]);
    let report = net.serve(&mut fl, rounds).expect("serve");
    for v in vehicles {
        v.join().expect("vehicle thread");
    }
    let (down, _, up_sign) = round_bytes(dim, clients);
    assert_eq!(
        report.tx_payload,
        (rounds * down) as u64,
        "lab loopback: broadcast bytes diverge from comms::round_bytes"
    );
    assert_eq!(
        report.rx_payload,
        (rounds * up_sign) as u64,
        "lab loopback: upload bytes diverge from comms::round_bytes"
    );
    assert_eq!(
        report.duplicates + report.stale + report.torn + report.timeouts,
        0,
        "lab loopback: clean run recorded wire faults"
    );
    (report.tx_payload, report.rx_payload)
}

/// Runs one trial to completion.
///
/// # Errors
///
/// Returns a [`TrialError`] before training when the plan asks for
/// something its scenario lacks (an `asr.*` eval without an attack,
/// `forget_malicious` without attackers).
///
/// # Panics
///
/// Panics if a pipeline stage fails — matrix rows describe valid
/// configurations, so a failure here is a bug, not an input error.
pub fn run_trial(plan: &TrialPlan) -> Result<TrialReport, TrialError> {
    let before = Snapshot::capture();
    let sc = scenario_of(plan);
    if sc.attack.is_none() {
        if let Some(e) = plan.evals.iter().find(|e| e.kind == EvalKind::Asr) {
            return Err(TrialError::AsrWithoutAttack { eval: e.metric() });
        }
    }
    let forgotten = sc.forgotten_id();
    // The clients every history-replay method erases: all attackers at
    // once (Fig. 1), or the designated client.
    let forgotten_set = if plan.forget_malicious {
        let ids = sc.malicious_ids();
        if ids.is_empty() {
            return Err(TrialError::NoMaliciousClients);
        }
        ids
    } else {
        vec![forgotten]
    };
    let mut trained = sc.train();

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut digests: BTreeMap<String, String> = BTreeMap::new();
    metrics.insert(
        "storage.gradient_savings".into(),
        trained.history.gradient_savings_ratio(),
    );

    // The history every replay method reads: the recorded one,
    // re-quantised at the row's δ (the Fig. 3 sweep knob) and/or thinned
    // to every k-th model (the checkpoint-thinning knob).
    let mut replay = plan
        .overrides
        .requantize_delta
        .map(|d| trained.history.requantized(&trained.full_store, d));
    if let Some(k) = plan.overrides.keep_models_every {
        let thin = replay
            .as_ref()
            .unwrap_or(&trained.history)
            .thinned_models(k);
        metrics.insert("thinning.models_stored".into(), thin.rounds().len() as f64);
        metrics.insert("thinning.model_bytes".into(), thin.model_bytes() as f64);
        replay = Some(thin);
    }
    let history = replay.as_ref().unwrap_or(&trained.history);

    // Every method whose parameters are needed: scored methods plus any
    // method an eval column points at.
    let mut wanted: Vec<Method> = plan.methods.clone();
    for e in &plan.evals {
        if !wanted.contains(&e.method) {
            wanted.push(e.method);
        }
    }

    // Parameter vectors per method, in Table I's order.
    let mut params: BTreeMap<Method, Vec<f32>> = BTreeMap::new();

    if wanted.contains(&Method::Original) {
        params.insert(Method::Original, trained.final_params.clone());
    }
    if wanted.contains(&Method::Unlearned) {
        let bt = backtrack_set(history, &forgotten_set).expect("backtrack");
        params.insert(Method::Unlearned, bt.params);
    }
    if wanted.contains(&Method::Ours) {
        let cfg = recovery_cfg(plan, history, sc.lr);
        let out = if plan.overrides.via_jobs == Some(true) {
            let mut svc = JobService::new(JobConfig::new(cfg));
            let id = svc.submit(history, &forgotten_set);
            svc.run_to_completion(&mut NoOracle);
            metrics.insert("jobs.used".into(), 1.0);
            svc.take_outcome(id)
                .expect("job finished")
                .expect("ours (jobs)")
        } else {
            recover_set(history, &forgotten_set, &cfg, &mut NoOracle, |_, _| {}).expect("ours")
        };
        metrics.insert("replay.rounds".into(), out.rounds_replayed as f64);
        metrics.insert("replay.fallbacks".into(), out.estimator_fallbacks as f64);
        params.insert(Method::Ours, out.params);
    }
    if wanted.contains(&Method::FedRecover) {
        // Exact corrections come only from vehicles still in range: a
        // departed vehicle cannot answer (the paper's Challenge II).
        let departed = sc.departed_ids();
        let cfg = FedRecoverConfig::new(sc.lr);
        let refs: Vec<&mut Box<dyn Client>> = trained
            .clients
            .iter_mut()
            .filter(|c| c.id() != forgotten && !departed.contains(&c.id()))
            .collect();
        let mut oracle = ClientPoolOracle::new(refs);
        let out = fedrecover(history, &trained.full_store, forgotten, &cfg, &mut oracle)
            .expect("fedrecover");
        metrics.insert("fedrecover.exact_queries".into(), out.exact_queries as f64);
        params.insert(Method::FedRecover, out.params);
    }
    if wanted.contains(&Method::FedRecovery) {
        let cfg = FedRecoveryConfig::new(sc.lr).noise_sigma(1e-3);
        let out = fedrecovery(history, &trained.full_store, forgotten, &cfg, sc.seed)
            .expect("fedrecovery");
        params.insert(Method::FedRecovery, out.params);
    }
    if wanted.contains(&Method::Retraining) {
        let init = trained.spec.build(sc.seed.wrapping_add(1)).params();
        let mut clients = sc.build_clients();
        let p = retrain(
            init,
            sc.fl_config(),
            &mut clients,
            &trained.schedule,
            forgotten,
        );
        params.insert(Method::Retraining, p);
    }
    if wanted.contains(&Method::SignReplay) {
        let cfg = recovery_cfg(plan, history, sc.lr).without_hessian();
        let out = recover_set(history, &forgotten_set, &cfg, &mut NoOracle, |_, _| {})
            .expect("sign replay");
        params.insert(Method::SignReplay, out.params);
    }
    if wanted.contains(&Method::Not) {
        let out = not_unlearn(
            trained.spec,
            &trained.final_params,
            history,
            &forgotten_set,
            None,
        )
        .expect("not");
        params.insert(Method::Not, out.params);
    }
    if wanted.contains(&Method::NotFinetune) {
        let cfg = recovery_cfg(plan, history, sc.lr);
        let out = not_unlearn(
            trained.spec,
            &trained.final_params,
            history,
            &forgotten_set,
            Some(&cfg),
        )
        .expect("not finetune");
        metrics.insert("not.finetune_rounds".into(), out.finetune_rounds as f64);
        params.insert(Method::NotFinetune, out.params);
    }

    // Accuracy columns for the scored methods.
    for m in &plan.methods {
        let p = &params[m];
        metrics.insert(
            format!("acc.{}", m.name()),
            f64::from(trained.accuracy_of(p)),
        );
    }

    // The heterogeneity diagnostic table1_row reports.
    let agreement = {
        let curve = fuiov_eval::sign_agreement_curve(&trained.history);
        let vals: Vec<f32> = curve.iter().map(|&(_, a)| a).collect();
        fuiov_tensor::stats::mean(&vals)
    };
    metrics.insert("sign_agreement".into(), f64::from(agreement));

    // Eval columns against each requested method's parameters: MIA
    // advantage and reconstruction error probe the designated client,
    // ASR the trial's attack.
    if !plan.evals.is_empty() {
        let member = sc.client_shard(forgotten);
        let mut model = trained.spec.build(0);
        for e in &plan.evals {
            let p = &params[&e.method];
            match e.kind {
                EvalKind::Mia => {
                    let adv = membership_advantage(&mut model, p, &member, &trained.test);
                    metrics.insert(e.metric(), f64::from(adv));
                }
                EvalKind::Recon => {
                    // `None` (no comparable coordinates) is omitted, not
                    // reported as a fake number.
                    if let Some(err) =
                        reconstruction_error(history, forgotten, &trained.final_params, p)
                    {
                        metrics.insert(e.metric(), f64::from(err));
                    }
                }
                EvalKind::Asr => {
                    let mut m = trained.model_with(p);
                    let asr = match &sc.attack {
                        Some(Attack::LabelFlip(a)) => label_flip_asr(&mut m, &trained.test, a),
                        Some(Attack::Backdoor(a)) => backdoor_asr(&mut m, &trained.test, a),
                        None => unreachable!("asr evals are rejected before training"),
                    };
                    metrics.insert(e.metric(), f64::from(asr));
                }
            }
        }
    }

    // Transport knob: a sign-mode socket round at this scenario's shape,
    // byte-reconciled against the comms model.
    if plan.overrides.transport.as_deref() == Some("loopback") {
        let (tx, rx) = loopback_check(trained.final_params.len(), sc.n_clients);
        metrics.insert("net.tx_payload_bytes".into(), tx as f64);
        metrics.insert("net.rx_payload_bytes".into(), rx as f64);
    }

    digests.insert(
        "final".into(),
        format!("{:016x}", digest_params(&trained.final_params)),
    );
    for (m, p) in &params {
        digests.insert(m.name().to_string(), format!("{:016x}", digest_params(p)));
    }

    let report = fuiov_obs::RunReport::since(&before);
    Ok(TrialReport {
        row_id: plan.row_id.clone(),
        variant: plan.variant.clone(),
        task: plan.task.name().to_string(),
        seed: plan.seed,
        repeat: plan.repeat,
        metrics,
        digests,
        counters: report.snapshot.counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::parse_matrix;
    use crate::plan::{expand, PlanFilter};

    fn tiny_plan(src: &str) -> TrialPlan {
        let rows = parse_matrix(src).unwrap();
        expand(&rows, &PlanFilter::default()).remove(0)
    }

    #[test]
    fn report_jsonl_round_trips() {
        let r = TrialReport {
            row_id: "a".into(),
            variant: "base".into(),
            task: "tiny".into(),
            seed: 7,
            repeat: 0,
            metrics: [("acc.ours".to_string(), 0.5f64)].into_iter().collect(),
            digests: [("ours".to_string(), "00ff".to_string())]
                .into_iter()
                .collect(),
            counters: [("replay.rounds".to_string(), 10u64)].into_iter().collect(),
        };
        let line = r.to_jsonl();
        assert_eq!(TrialReport::parse_jsonl(&line).unwrap(), r);
    }

    #[test]
    fn scenario_overrides_apply() {
        let plan = tiny_plan(concat!(
            r#"{"id":"t","task":"tiny","overrides":{"rounds":5,"n_clients":4,"lr":0.2,"#,
            r#""tree_fanout":2,"sample_frac":0.5,"attack":"label_flip","malicious_fraction":0.25}}"#
        ));
        let sc = scenario_of(&plan);
        assert_eq!(sc.rounds, 5);
        assert_eq!(sc.n_clients, 4);
        assert_eq!(sc.lr, 0.2);
        assert_eq!(sc.tree_fanout, Some(2));
        assert_eq!(sc.sample_frac, Some(0.5));
        assert!(matches!(sc.attack, Some(Attack::LabelFlip(_))));
        let sc = scenario_of(&tiny_plan(
            r#"{"id":"t","task":"tiny","overrides":{"attack":"backdoor"}}"#,
        ));
        match sc.attack {
            Some(Attack::Backdoor(b)) => assert_eq!(b.trigger.value, 1.0, "bright trigger"),
            other => panic!("expected a backdoor, got {other:?}"),
        }
    }

    #[test]
    fn tiny_trial_runs_and_reports() {
        let plan = tiny_plan(concat!(
            r#"{"id":"t","task":"tiny","methods":["original","unlearned","ours"],"#,
            r#""evals":["mia.ours","recon.ours"],"overrides":{"rounds":8}}"#
        ));
        let r = run_trial(&plan).unwrap();
        assert!(r.metrics.contains_key("acc.original"));
        assert!(r.metrics.contains_key("acc.ours"));
        assert!(r.metrics.contains_key("mia.ours"));
        assert!(r.metrics.contains_key("recon.ours"));
        assert!(r.metrics.contains_key("replay.rounds"));
        assert!(r.digests.contains_key("ours"));
        let acc = r.metrics["acc.ours"];
        assert!((0.0..=1.0).contains(&acc), "accuracy out of range: {acc}");
        let mia = r.metrics["mia.ours"];
        assert!((-1.0..=1.0).contains(&mia), "advantage out of range: {mia}");
        // The §I storage claim on the tiny MLP (d = 4970): ⌈d/4⌉ packed
        // bytes against 4d bytes of f32 per client-round.
        let savings = r.metrics["storage.gradient_savings"];
        assert!(
            (savings - (1.0 - 1243.0 / 19880.0)).abs() < 1e-12,
            "{savings}"
        );
    }

    #[test]
    fn via_jobs_matches_direct_recovery_bitwise() {
        let direct = run_trial(&tiny_plan(
            r#"{"id":"d","task":"tiny","methods":["ours"],"overrides":{"rounds":8}}"#,
        ))
        .unwrap();
        let jobs = run_trial(&tiny_plan(
            r#"{"id":"j","task":"tiny","methods":["ours"],"overrides":{"rounds":8,"via_jobs":true}}"#,
        ))
        .unwrap();
        assert_eq!(direct.digests["ours"], jobs.digests["ours"]);
        assert_eq!(jobs.metrics["jobs.used"], 1.0);
    }

    #[test]
    fn trials_are_deterministic() {
        let plan = tiny_plan(
            r#"{"id":"t","task":"tiny","methods":["ours","not"],"overrides":{"rounds":8}}"#,
        );
        let a = run_trial(&plan).unwrap();
        let b = run_trial(&plan).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.digests, b.digests);
    }

    #[test]
    fn plans_missing_what_they_ask_for_are_typed_errors() {
        let no_attack =
            tiny_plan(r#"{"id":"t","task":"tiny","methods":["ours"],"evals":["asr.ours"]}"#);
        assert_eq!(
            run_trial(&no_attack),
            Err(TrialError::AsrWithoutAttack {
                eval: "asr.ours".into()
            })
        );
        let no_attackers =
            tiny_plan(r#"{"id":"t","task":"tiny","methods":["ours"],"forget_malicious":true}"#);
        assert_eq!(
            run_trial(&no_attackers),
            Err(TrialError::NoMaliciousClients)
        );
    }
}
