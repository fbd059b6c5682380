//! `fuiov` — command-line driver for the federated-unlearning pipeline.
//!
//! A minimal operational surface over the library: train a federation and
//! persist the server's history, inspect it, serve an unlearning request
//! from it, and evaluate checkpoints. All state lives in ordinary files of
//! sealed FUSG records (`fuiov_storage::segment`), so the unlearn step
//! works on a "restarted" server — nothing but the history file is
//! needed — and a damaged file fails to decode instead of loading.
//!
//! ```text
//! fuiov train   --out history.bin [--clients 6] [--rounds 40] [--seed 42] [--forgotten-join 2]
//! fuiov info    --history history.bin
//! fuiov unlearn --history history.bin --client 5 --out model.ckpt [--no-hessian]
//! fuiov eval    --model model.ckpt [--seed 42]
//! ```
//!
//! `train` reads two environment variables once, at startup, and hands
//! them to the server's builders: `FUIOV_TREE_FANOUT` (an RSU/edge
//! aggregation tree of that fan-out; below 2 means flat) and
//! `FUIOV_SAMPLE_FRAC` (per-round client sampling; a fraction outside
//! `(0, 1)` samples everyone). Neither changes a bit of the trained model
//! at its identity value. `train` keeps its history resident.
//!
//! `info` and `unlearn` read `FUIOV_HISTORY_BUDGET` (bytes; unset,
//! unparsable or 0 means unbounded) once, when they load the history, and
//! hand it to `HistoryStore::set_budget`: rounds beyond the budget spill
//! to a segment file and decode back losslessly, so the recovered model's
//! bytes do not depend on it.

use fuiov::data::{partition::partition_iid, Dataset, DigitStyle};
use fuiov::eval::test_accuracy;
use fuiov::fl::mobility::{ChurnSchedule, Membership};
use fuiov::fl::{Client, FlConfig, HonestClient, Server};
use fuiov::nn::ModelSpec;
use fuiov::storage::segment::{decode_history, decode_keyframe, encode_history, encode_keyframe};
use fuiov::unlearn::{backtrack_set, calibrate_lr, recover_set, NoOracle, RecoveryConfig};
use std::process::ExitCode;

/// The CLI's fixed task: digits at 12×12 with the test MLP. The library
/// supports arbitrary specs; the CLI pins one so checkpoints and
/// histories are self-consistent without a schema field.
const SPEC: ModelSpec = ModelSpec::Mlp {
    inputs: 144,
    hidden: 32,
    classes: 10,
};
const IMAGE: DigitStyle = DigitStyle {
    size: 12,
    noise_sigma: 0.15,
    max_rotation: 0.22,
    max_shift: 0.08,
    stroke: (0.06, 0.12),
    scale: (0.75, 1.05),
};

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     fuiov train   --out <history.bin> [--clients N] [--rounds T] [--seed S] [--forgotten-join F]\n  \
     fuiov info    --history <history.bin>\n  \
     fuiov unlearn --history <history.bin> --client ID --out <model.ckpt> [--no-hessian] [--lr X]\n  \
     fuiov eval    --model <model.ckpt> [--seed S]"
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let out = args.require("out")?.to_string();
    let n_clients: usize = args.get_parse("clients", 6)?;
    let rounds: usize = args.get_parse("rounds", 40)?;
    let seed: u64 = args.get_parse("seed", 42)?;
    let forgotten_join: usize = args.get_parse("forgotten-join", 2)?;
    if n_clients < 2 {
        return Err("need at least 2 clients".into());
    }
    if rounds == 0 {
        return Err("invalid --rounds".into());
    }

    eprintln!("training {n_clients} clients for {rounds} rounds (seed {seed}) …");
    let train = Dataset::digits(n_clients * 40, &IMAGE, seed);
    let parts = partition_iid(train.len(), n_clients, seed);
    let mut clients: Vec<Box<dyn Client>> = parts
        .into_iter()
        .enumerate()
        .map(|(id, idx)| {
            Box::new(HonestClient::new(id, SPEC, train.subset(&idx), 40, seed)) as Box<dyn Client>
        })
        .collect();
    let mut schedule = ChurnSchedule::static_membership(n_clients, rounds);
    schedule.set_membership(
        n_clients - 1,
        Membership {
            joined: forgotten_join.min(rounds),
            leaves_after: None,
            dropouts: vec![],
        },
    );
    let mut server = Server::new(FlConfig::new(rounds, 0.1), SPEC.build(seed).params())
        .with_tree_fanout(env_parse("FUIOV_TREE_FANOUT"))
        .with_sample_frac(env_parse("FUIOV_SAMPLE_FRAC").unwrap_or(1.0));
    server.train(&mut clients, &schedule);

    let test = Dataset::digits(200, &IMAGE, seed + 1);
    let mut m = SPEC.build(0);
    m.set_params(server.params());
    println!("final accuracy: {:.3}", test_accuracy(&mut m, &test));

    let blob = encode_history(server.history()).map_err(|e| format!("encoding history: {e}"))?;
    std::fs::write(&out, &blob).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "history written to {out} ({} KiB; {:.1}% gradient-storage savings)",
        blob.len() / 1024,
        server.history().gradient_savings_ratio() * 100.0
    );
    Ok(())
}

fn load_history(args: &Args) -> Result<fuiov::storage::HistoryStore, String> {
    let path = args.require("history")?;
    let blob = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut h = decode_history(&blob).map_err(|e| format!("decoding {path}: {e}"))?;
    h.set_budget(env_parse("FUIOV_HISTORY_BUDGET").filter(|&b: &usize| b > 0));
    Ok(h)
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let h = load_history(args)?;
    println!("rounds recorded:   {}", h.rounds().len());
    println!("model dimension:   {}", h.dim().unwrap_or(0));
    println!("sign threshold δ:  {}", h.delta());
    println!("model bytes:       {}", h.model_bytes());
    println!("spilled bytes:     {}", h.spilled_bytes());
    println!(
        "direction bytes:   {} ({:.1}% savings vs f32)",
        h.direction_bytes(),
        h.gradient_savings_ratio() * 100.0
    );
    println!("clients:");
    for c in h.clients() {
        let p = h.participation(c).expect("listed");
        let left = p
            .left
            .map_or("active".to_string(), |l| format!("left after {l}"));
        println!(
            "  {c:>4}: joined round {:>3}, {left}, weight {}",
            p.joined,
            h.weight(c)
        );
    }
    Ok(())
}

fn cmd_unlearn(args: &Args) -> Result<(), String> {
    let h = load_history(args)?;
    let client: usize = args
        .require("client")?
        .parse()
        .map_err(|_| "invalid --client".to_string())?;
    let out = args.require("out")?.to_string();

    let lr = match args.get("lr") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|lr: &f32| *lr > 0.0 && lr.is_finite())
            .ok_or_else(|| "invalid --lr".to_string())?,
        None => calibrate_lr(&h).map_or(0.01, |c| c * 2.0),
    };
    let mut cfg = RecoveryConfig::new(lr);
    if args.has("no-hessian") {
        cfg = cfg.without_hessian();
    }
    let bt = backtrack_set(&h, &[client]).map_err(|e| e.to_string())?;
    eprintln!(
        "backtracked to round {} (erasing client {client}); recovering {} rounds at lr {lr:.5} …",
        bt.join_round,
        bt.latest_round - bt.join_round
    );
    let rec =
        recover_set(&h, &[client], &cfg, &mut NoOracle, |_, _| {}).map_err(|e| e.to_string())?;
    let blob = encode_keyframe(bt.latest_round, &rec.params);
    std::fs::write(&out, &blob).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "recovered model written to {out} ({} params, {} rounds replayed, {} estimator fallbacks)",
        rec.params.len(),
        rec.rounds_replayed,
        rec.estimator_fallbacks
    );
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let path = args.require("model")?;
    let seed: u64 = args.get_parse("seed", 42)?;
    let blob = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (_, params) = decode_keyframe(&blob).map_err(|e| format!("decoding {path}: {e}"))?;
    if params.len() != SPEC.param_count() {
        return Err(format!(
            "checkpoint has {} params; the CLI's model expects {}",
            params.len(),
            SPEC.param_count()
        ));
    }
    let mut m = SPEC.build(0);
    m.set_params(&params);
    let test = Dataset::digits(200, &IMAGE, seed + 1);
    println!("accuracy: {:.3}", test_accuracy(&mut m, &test));
    Ok(())
}

/// Parses an environment variable, if set and well-formed; anything else
/// leaves the builder's default in force.
fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&raw[1..]);
    let result = match cmd.as_str() {
        "train" => cmd_train(&args),
        "info" => cmd_info(&args),
        "unlearn" => cmd_unlearn(&args),
        "eval" => cmd_eval(&args),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
