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
    // Magic "FUHS", version 1, δ = 1e-6, then the sections of each case.
    let header = |rest: &[u8]| -> Vec<u8> {
        let mut b = 0x4655_4853u32.to_le_bytes().to_vec();
        b.extend_from_slice(&1u16.to_le_bytes());
        b.extend_from_slice(&1e-6f32.to_le_bytes());
        b.extend_from_slice(rest);
        b
    };
    let le32 = |v: u32| v.to_le_bytes();
    let le64 = |v: u64| v.to_le_bytes();
    // No models, one direction claiming 40 elements in 2 bytes.
    let short_direction = [
        &le32(0)[..],
        &le32(1),
        &le64(0),
        &le64(1),
        &le32(40),
        &le32(2),
        &[0xFF, 0xFF],
        &le32(0),
    ]
    .concat();
    // No models and u32::MAX directions, none present.
    let huge_count = [&le32(0)[..], &le32(u32::MAX)].concat();
    // Two models of lengths 2 and 1.
    let ragged_models = [
        &le32(2)[..],
        &le64(0),
        &le32(2),
        &1f32.to_le_bytes(),
        &2f32.to_le_bytes(),
        &le64(1),
        &le32(1),
        &1f32.to_le_bytes(),
        &le32(0),
        &le32(0),
    ]
    .concat();
    for (name, rest) in [
        ("short", short_direction),
        ("huge", huge_count),
        ("ragged", ragged_models),
    ] {
        let path = tmp(&format!("crafted-{name}.bin"));
        std::fs::write(&path, header(&rest)).unwrap();
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
