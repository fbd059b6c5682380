//! Integration tests for the `fuiov` CLI binary: the full
//! train → info → unlearn → eval round trip through the filesystem.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fuiov"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fuiov-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn train_info_unlearn_eval_roundtrip() {
    let hist = tmp("hist.bin");
    let model = tmp("model.ckpt");

    let out = bin()
        .args([
            "train",
            "--out",
            hist.to_str().unwrap(),
            "--clients",
            "4",
            "--rounds",
            "8",
            "--seed",
            "5",
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("final accuracy"), "{stdout}");
    assert!(hist.exists());

    let out = bin()
        .args(["info", "--history", hist.to_str().unwrap()])
        .output()
        .expect("run info");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rounds recorded:   9"), "{stdout}");
    assert!(
        stdout.contains("joined round   2"),
        "forgotten client F=2 missing: {stdout}"
    );

    let out = bin()
        .args([
            "unlearn",
            "--history",
            hist.to_str().unwrap(),
            "--client",
            "3",
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("run unlearn");
    assert!(
        out.status.success(),
        "unlearn failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    let out = bin()
        .args(["eval", "--model", model.to_str().unwrap(), "--seed", "5"])
        .output()
        .expect("run eval");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("accuracy:"));

    let _ = std::fs::remove_file(&hist);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn unlearn_unknown_client_fails_cleanly() {
    let hist = tmp("hist2.bin");
    let out = bin()
        .args([
            "train",
            "--out",
            hist.to_str().unwrap(),
            "--clients",
            "3",
            "--rounds",
            "5",
            "--seed",
            "1",
        ])
        .output()
        .expect("run train");
    assert!(out.status.success());

    let out = bin()
        .args([
            "unlearn",
            "--history",
            hist.to_str().unwrap(),
            "--client",
            "99",
            "--out",
            tmp("never.ckpt").to_str().unwrap(),
        ])
        .output()
        .expect("run unlearn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("never participated"));
    let _ = std::fs::remove_file(&hist);
}

#[test]
fn bad_invocations_fail_with_usage() {
    let out = bin().output().expect("run bare");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = bin().args(["wibble"]).output().expect("run unknown");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin()
        .args(["info"])
        .output()
        .expect("run info without args");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--history"));

    let out = bin()
        .args(["info", "--history", "/nonexistent/nope.bin"])
        .output()
        .expect("run info missing file");
    assert!(!out.status.success());
}

#[test]
fn info_on_a_crafted_history_fails_with_a_decoding_error() {
    use fuiov::storage::segment::{self, RecordKind, HEADER_LEN};
    use fuiov::storage::HistoryStore;

    // A roster with δ = 1e-6 and no clients, declaring `count` records.
    let roster =
        |count: usize| segment::encode_record(RecordKind::Roster, count, 0, &1e-6f32.to_le_bytes());
    // One direction claiming 40 elements in 2 bytes.
    let mut short_payload = 1u32.to_le_bytes().to_vec();
    short_payload.extend_from_slice(&1u64.to_le_bytes());
    short_payload.extend_from_slice(&40u32.to_le_bytes());
    short_payload.extend_from_slice(&2u32.to_le_bytes());
    short_payload.extend_from_slice(&[0xFF, 0xFF]);
    let short_direction = [
        roster(1),
        segment::encode_record(RecordKind::Directions, 0, 0, &short_payload),
    ]
    .concat();
    // u32::MAX records declared, none present.
    let huge_count = roster(u32::MAX as usize);
    // Two models of lengths 2 and 1.
    let ragged_models = [
        roster(2),
        segment::encode_keyframe(0, &[1.0, 2.0]),
        segment::encode_keyframe(1, &[1.0]),
    ]
    .concat();
    // A well-formed history with one bit flipped inside a model value.
    let mut h = HistoryStore::new(1e-6);
    h.record_join(0, 0);
    h.record_model(0, vec![0.25, -0.5, 1.0]);
    h.record_gradient(0, 0, &[0.5, -0.5, 0.0]);
    let mut flipped_bit = segment::encode_history(&h).unwrap();
    assert!(segment::decode_history(&flipped_bit).is_ok());
    let first_value = segment::framed_len(&flipped_bit).unwrap() + HEADER_LEN + 4;
    flipped_bit[first_value + 1] ^= 0x10;
    for (name, bytes) in [
        ("short", short_direction),
        ("huge", huge_count),
        ("ragged", ragged_models),
        ("flipped", flipped_bit),
    ] {
        let path = tmp(&format!("crafted-{name}.bin"));
        std::fs::write(&path, bytes).unwrap();
        let out = bin()
            .args(["info", "--history", path.to_str().unwrap()])
            .output()
            .expect("run info");
        let _ = std::fs::remove_file(&path);
        // Exit code 1 is the CLI's own failure; a panic exits with 101
        // and an abort leaves no code at all.
        assert_eq!(out.status.code(), Some(1), "{name}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("decoding"), "{name}: {stderr}");
    }
}

#[test]
fn unlearn_on_a_zero_dimension_history_fails_with_a_decoding_error() {
    use fuiov::storage::{segment, HistoryStore};

    // Three clients over four rounds whose models and directions all have
    // length 0: every record is well sealed, but there is no parameter to
    // recover.
    let mut h = HistoryStore::new(1e-6);
    for c in 0..3 {
        h.record_join(c, if c == 1 { 1 } else { 0 });
    }
    for t in 0..4 {
        h.record_model(t, Vec::new());
        for c in 0..3 {
            if c != 1 || t >= 1 {
                h.record_gradient(t, c, &[]);
            }
        }
    }
    h.record_model(4, Vec::new());
    let path = tmp("zero-dim.bin");
    std::fs::write(&path, segment::encode_history(&h).unwrap()).unwrap();
    let ckpt = tmp("zero-dim.ckpt");
    for args in [
        vec!["info", "--history", path.to_str().unwrap()],
        vec![
            "unlearn",
            "--history",
            path.to_str().unwrap(),
            "--client",
            "1",
            "--lr",
            "0.1",
            "--out",
            ckpt.to_str().unwrap(),
        ],
    ] {
        let out = bin().args(&args).output().expect("run fuiov");
        // Exit code 1 is the CLI's own failure; a panic exits with 101.
        assert_eq!(out.status.code(), Some(1), "{}: {:?}", args[0], out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("decoding"), "{}: {stderr}", args[0]);
        assert!(
            stderr.contains("zero-dimension model"),
            "{}: {stderr}",
            args[0]
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn unlearn_refuses_a_non_positive_or_non_finite_lr() {
    let hist = tmp("hist-lr.bin");
    let out = bin()
        .args([
            "train",
            "--out",
            hist.to_str().unwrap(),
            "--clients",
            "3",
            "--rounds",
            "4",
            "--seed",
            "2",
        ])
        .output()
        .expect("run train");
    assert!(out.status.success());

    for lr in ["0", "-0.5", "nan", "inf"] {
        let out = bin()
            .args([
                "unlearn",
                "--history",
                hist.to_str().unwrap(),
                "--client",
                "2",
                "--out",
                tmp("never-lr.ckpt").to_str().unwrap(),
                "--lr",
                lr,
            ])
            .output()
            .expect("run unlearn");
        assert_eq!(out.status.code(), Some(1), "--lr {lr}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: invalid --lr"),
            "--lr {lr}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&hist);
}

#[test]
fn train_refuses_zero_rounds() {
    let hist = tmp("hist-zero-rounds.bin");
    let out = bin()
        .args(["train", "--out", hist.to_str().unwrap(), "--rounds", "0"])
        .output()
        .expect("run train");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: invalid --rounds"), "{stderr}");
    assert!(!hist.exists());
}

#[test]
fn unlearn_under_a_history_budget_writes_identical_bytes() {
    let hist = tmp("hist-budget.bin");
    let out = bin()
        .args([
            "train",
            "--out",
            hist.to_str().unwrap(),
            "--clients",
            "4",
            "--rounds",
            "8",
            "--seed",
            "3",
        ])
        .output()
        .expect("run train");
    assert!(out.status.success());

    // 8 KiB is less than one model of the CLI's MLP (4,970 parameters),
    // so the budgeted run spills every round and replays it from the
    // segment file; the unbounded run keeps it all resident.
    let mut checkpoints = Vec::new();
    for budget in [Some("8192"), None] {
        let run = |args: &[&str]| {
            let mut cmd = bin();
            cmd.args(args);
            match budget {
                Some(b) => cmd.env("FUIOV_HISTORY_BUDGET", b),
                None => cmd.env_remove("FUIOV_HISTORY_BUDGET"),
            };
            cmd.output().expect("run fuiov")
        };
        let out = run(&["info", "--history", hist.to_str().unwrap()]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let spilled = stdout
            .lines()
            .find_map(|l| l.strip_prefix("spilled bytes:"))
            .map(|v| v.trim().parse::<usize>().expect("a byte count"))
            .expect("info reports spilled bytes");
        assert_eq!(spilled > 0, budget.is_some(), "{budget:?}: {stdout}");

        let ckpt = tmp(&format!("budget-{}.ckpt", budget.unwrap_or("none")));
        let out = run(&[
            "unlearn",
            "--history",
            hist.to_str().unwrap(),
            "--client",
            "3",
            "--out",
            ckpt.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{budget:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        checkpoints.push(std::fs::read(&ckpt).expect("checkpoint written"));
        let _ = std::fs::remove_file(&ckpt);
    }
    assert_eq!(
        checkpoints[0], checkpoints[1],
        "the history budget must not change the recovered model's bytes"
    );
    let _ = std::fs::remove_file(&hist);
}
