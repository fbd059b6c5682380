//! Bitwise parity pins for every experiment recipe the lab reproduces.
//!
//! Each case is a one-row matrix at tiny scale, run at seeds 42, 101 and
//! 202. A trial's pin line holds the FNV-1a digest of every method's
//! output parameters (the `digests` its report already carries), the bit
//! patterns of its accuracy and ASR columns, and — where the recipe
//! reports them — FedRecover's exact-query count and the thinned
//! history's size. Each line must equal the value recorded when the row
//! was checked bitwise against the standalone experiment code it replaced
//! (Table I plain and non-IID, Fig. 1 under both attacks, Fig. 2, Fig. 3,
//! departures, the recovery ablations, checkpoint thinning and the IoT
//! sign-replay ablation), so the pins outlive that code. Exact bits, not
//! values within a tolerance.

use fuiov_lab::matrix::parse_matrix;
use fuiov_lab::plan::{expand, PlanFilter};
use fuiov_lab::runner::{run_trial, TrialReport};

const SEEDS: [u64; 3] = [42, 101, 202];

/// Digests, then `acc.*`/`asr.*` as `f32` bits and the recipe's counts.
fn pin_line(r: &TrialReport) -> String {
    let mut parts: Vec<String> = r.digests.iter().map(|(k, v)| format!("{k}={v}")).collect();
    for (k, v) in &r.metrics {
        if k.starts_with("acc.") || k.starts_with("asr.") {
            // Stored as `f64::from(f32)`, so the narrowing is exact.
            parts.push(format!("{k}={:08x}", (*v as f32).to_bits()));
        } else if k.starts_with("fedrecover.") || k.starts_with("thinning.") {
            parts.push(format!("{k}={v}"));
        }
    }
    parts.join(" ")
}

/// Runs `row` at every seed and compares each trial's `seed variant pin`
/// line, in order, with the recorded `pins` (one line per trial).
fn assert_pins(row: &str, pins: &str) {
    let rows = parse_matrix(row).expect("matrix parses");
    let mut want = pins.lines().filter(|l| !l.is_empty());
    for seed in SEEDS {
        let filter = PlanFilter {
            seed_override: Some(seed),
            ..Default::default()
        };
        for plan in expand(&rows, &filter) {
            let report = run_trial(&plan).expect("trial runs");
            let got = format!("{seed} {} {}", report.variant, pin_line(&report));
            assert_eq!(Some(got.as_str()), want.next(), "pin drifted");
        }
    }
    assert_eq!(want.next(), None, "fewer trials than pins");
}

/// Table I: the six methods of the comparison.
const TABLE1: &str = r#"{"id":"t","task":"tiny"}"#;

const TABLE1_PINS: &str = "
42 base fedrecover=e89f9a8259e06f53 fedrecovery=b90823d146afdab5 final=98239e2e78e4164b original=98239e2e78e4164b ours=de9433cddb4591de retraining=66096e1b83e82efc unlearned=badd1a52c9641586 acc.fedrecover=3e428f5c acc.fedrecovery=3e428f5c acc.original=3e428f5c acc.ours=3e23d70a acc.retraining=3e0f5c29 acc.unlearned=3e23d70a fedrecover.exact_queries=0
101 base fedrecover=b0696c111815de29 fedrecovery=b31865851df5a1b9 final=9b516fb37d48eba1 original=9b516fb37d48eba1 ours=e662e83c9129d157 retraining=25ed882873c7e130 unlearned=8da112232215e202 acc.fedrecover=3e051eb8 acc.fedrecovery=3e0f5c29 acc.original=3de147ae acc.ours=3e051eb8 acc.retraining=3e3851ec acc.unlearned=3db851ec fedrecover.exact_queries=0
202 base fedrecover=4305deb3efc8bd38 fedrecovery=c879edd7912a5726 final=b5755c6c36b9b52a original=b5755c6c36b9b52a ours=7d725ea1a106d8f8 retraining=c1a482616291a85a unlearned=16aa7eba5c4b6078 acc.fedrecover=3e4ccccd acc.fedrecovery=3e19999a acc.original=3e3851ec acc.ours=3e23d70a acc.retraining=3e23d70a acc.unlearned=3d8f5c29 fedrecover.exact_queries=0
";

#[test]
fn lab_trial_reproduces_table1_row_bitwise() {
    assert_pins(TABLE1, TABLE1_PINS);
}

/// Table I under Dirichlet label skew (the non-IID extension).
const NONIID: &str = r#"{"id":"t","task":"tiny","overrides":{"non_iid_alpha":1.0}}"#;

const NONIID_PINS: &str = "
42 base fedrecover=902c63ccccb6c44f fedrecovery=553bde8801196aff final=e592cb0347ac7b11 original=e592cb0347ac7b11 ours=f97dcff85a1ed745 retraining=eea4e276c6cffdbc unlearned=d95778ea83f4b7c2 acc.fedrecover=3e428f5c acc.fedrecovery=3e428f5c acc.original=3e4ccccd acc.ours=3e3851ec acc.retraining=3e2e147b acc.unlearned=3e23d70a fedrecover.exact_queries=0
101 base fedrecover=8dfadb948dfae5e3 fedrecovery=92528f374268975b final=33a725380f226f39 original=33a725380f226f39 ours=d983bbfce6400cbf retraining=9cfb3d73ad4adfb3 unlearned=7788876ce35caf3d acc.fedrecover=3e19999a acc.fedrecovery=3df5c28f acc.original=3de147ae acc.ours=3de147ae acc.retraining=3e2e147b acc.unlearned=3db851ec fedrecover.exact_queries=0
202 base fedrecover=a1ae17377d7b34ab fedrecovery=cf30659ac01ec489 final=83f949f2d0c4202b original=83f949f2d0c4202b ours=734dbabd6a8101a4 retraining=949c646d08edb311 unlearned=6ab2736378fc456a acc.fedrecover=3e4ccccd acc.fedrecovery=3e2e147b acc.original=3e570a3d acc.ours=3e051eb8 acc.retraining=3e570a3d acc.unlearned=3db851ec fedrecover.exact_queries=0
";

#[test]
fn table1_row_under_dirichlet_skew_is_pinned() {
    assert_pins(NONIID, NONIID_PINS);
}

/// Fig. 1: erase every attacker, ASR before/after forgetting/after
/// recovery, under label flip and the bright backdoor.
const FIG1: &str = concat!(
    r#"{"id":"t","task":"tiny","forget_malicious":true,"methods":["original","unlearned","ours"],"#,
    r#""evals":["asr.original","asr.unlearned","asr.ours"],"#,
    r#""overrides":{"attack":"label_flip","malicious_fraction":0.4},"#,
    r#""variants":[{"name":"backdoor","overrides":{"attack":"backdoor"}}]}"#
);

const FIG1_PINS: &str = "
42 base final=9abe75f98d472339 original=9abe75f98d472339 ours=d7cd831aeef06cc9 unlearned=6b49f07130e981f4 acc.original=3e2e147b acc.ours=3e0f5c29 acc.unlearned=3e23d70a asr.original=3f800000 asr.ours=00000000 asr.unlearned=00000000
42 backdoor final=bfe03ecc57aba570 original=bfe03ecc57aba570 ours=ba043d9e5131048b unlearned=6b49f07130e981f4 acc.original=3e2e147b acc.ours=3e19999a acc.unlearned=3e23d70a asr.original=3f800000 asr.ours=3c360b61 asr.unlearned=00000000
101 base final=fbec7b416ce6ea64 original=fbec7b416ce6ea64 ours=fa054b68d252b1f5 unlearned=448aad98efb4005c acc.original=3df5c28f acc.ours=3da3d70a acc.unlearned=3db851ec asr.original=3f800000 asr.ours=00000000 asr.unlearned=00000000
101 backdoor final=44f2b7e7d4d92f6d original=44f2b7e7d4d92f6d ours=667abb10741aebfd unlearned=448aad98efb4005c acc.original=3dcccccd acc.ours=3d8f5c29 acc.unlearned=3db851ec asr.original=3f800000 asr.ours=3e2aaaab asr.unlearned=3d360b61
202 base final=2844361bd6a58be6 original=2844361bd6a58be6 ours=51b0a6be90d98d3d unlearned=332f3e77fd44bfa4 acc.original=3df5c28f acc.ours=3dcccccd acc.unlearned=3d75c28f asr.original=3f800000 asr.ours=00000000 asr.unlearned=00000000
202 backdoor final=83239db493e5717d original=83239db493e5717d ours=103f587b496b1232 unlearned=332f3e77fd44bfa4 acc.original=3de147ae acc.ours=3e0f5c29 acc.unlearned=3d75c28f asr.original=3f800000 asr.ours=00000000 asr.unlearned=3d638e39
";

#[test]
fn fig1_erases_every_attacker_under_both_attacks() {
    assert_pins(FIG1, FIG1_PINS);
}

/// Fig. 2: the clip-threshold sweep (base = `L = 1`).
const FIG2: &str = concat!(
    r#"{"id":"t","task":"tiny","methods":["ours"],"variants":["#,
    r#"{"name":"L0.01","overrides":{"clip_threshold":0.01}},"#,
    r#"{"name":"L0.05","overrides":{"clip_threshold":0.05}},"#,
    r#"{"name":"L0.1","overrides":{"clip_threshold":0.1}},"#,
    r#"{"name":"L0.5","overrides":{"clip_threshold":0.5}},"#,
    r#"{"name":"L2","overrides":{"clip_threshold":2.0}},"#,
    r#"{"name":"L5","overrides":{"clip_threshold":5.0}},"#,
    r#"{"name":"L10","overrides":{"clip_threshold":10.0}}]}"#
);

const FIG2_PINS: &str = "
42 base final=98239e2e78e4164b ours=de9433cddb4591de acc.ours=3e23d70a
42 L0.01 final=98239e2e78e4164b ours=1a658bdc3a6cce04 acc.ours=3e23d70a
42 L0.05 final=98239e2e78e4164b ours=ccfc0661adb0614f acc.ours=3e23d70a
42 L0.1 final=98239e2e78e4164b ours=4431774254f002c0 acc.ours=3e19999a
42 L0.5 final=98239e2e78e4164b ours=46df21b775d3ae12 acc.ours=3e2e147b
42 L2 final=98239e2e78e4164b ours=ff409e5d89b59800 acc.ours=3e23d70a
42 L5 final=98239e2e78e4164b ours=3616426189e28f84 acc.ours=3e23d70a
42 L10 final=98239e2e78e4164b ours=57604e7c42578ac1 acc.ours=3e23d70a
101 base final=9b516fb37d48eba1 ours=e662e83c9129d157 acc.ours=3e051eb8
101 L0.01 final=9b516fb37d48eba1 ours=d0780058b96007f3 acc.ours=3db851ec
101 L0.05 final=9b516fb37d48eba1 ours=67d6635877a7ef2b acc.ours=3db851ec
101 L0.1 final=9b516fb37d48eba1 ours=cb00d8a5578d321d acc.ours=3dcccccd
101 L0.5 final=9b516fb37d48eba1 ours=c94ce4915938b6c6 acc.ours=3df5c28f
101 L2 final=9b516fb37d48eba1 ours=31cd8aca294e793c acc.ours=3e051eb8
101 L5 final=9b516fb37d48eba1 ours=66e8c3cf25acd571 acc.ours=3e0f5c29
101 L10 final=9b516fb37d48eba1 ours=68811dd423caf11e acc.ours=3e0f5c29
202 base final=b5755c6c36b9b52a ours=7d725ea1a106d8f8 acc.ours=3e23d70a
202 L0.01 final=b5755c6c36b9b52a ours=146d20983abe2067 acc.ours=3da3d70a
202 L0.05 final=b5755c6c36b9b52a ours=bfb544e879acf00d acc.ours=3db851ec
202 L0.1 final=b5755c6c36b9b52a ours=0a802485667d2b12 acc.ours=3db851ec
202 L0.5 final=b5755c6c36b9b52a ours=5c6bb24f3bd30b67 acc.ours=3df5c28f
202 L2 final=b5755c6c36b9b52a ours=a4b5e62a16ba0a4c acc.ours=3e23d70a
202 L5 final=b5755c6c36b9b52a ours=6d5667fabf6331ad acc.ours=3e23d70a
202 L10 final=b5755c6c36b9b52a ours=d8f94ab0cf797d2e acc.ours=3e19999a
";

#[test]
fn fig2_clip_sweep_is_pinned() {
    assert_pins(FIG2, FIG2_PINS);
}

/// Fig. 3: the sign-threshold sweep, re-quantising one training run.
const FIG3: &str = concat!(
    r#"{"id":"t","task":"tiny","methods":["unlearned","ours"],"variants":["#,
    r#"{"name":"d1e-8","overrides":{"requantize_delta":1e-8}},"#,
    r#"{"name":"d1e-7","overrides":{"requantize_delta":1e-7}},"#,
    r#"{"name":"d1e-6","overrides":{"requantize_delta":1e-6}},"#,
    r#"{"name":"d1e-5","overrides":{"requantize_delta":1e-5}},"#,
    r#"{"name":"d1e-4","overrides":{"requantize_delta":1e-4}},"#,
    r#"{"name":"d1e-3","overrides":{"requantize_delta":1e-3}},"#,
    r#"{"name":"d3e-3","overrides":{"requantize_delta":3e-3}},"#,
    r#"{"name":"d1e-2","overrides":{"requantize_delta":1e-2}},"#,
    r#"{"name":"d3e-2","overrides":{"requantize_delta":3e-2}},"#,
    r#"{"name":"d1e-1","overrides":{"requantize_delta":1e-1}}]}"#
);

const FIG3_PINS: &str = "
42 base final=98239e2e78e4164b ours=de9433cddb4591de unlearned=badd1a52c9641586 acc.ours=3e23d70a acc.unlearned=3e23d70a
42 d1e-8 final=98239e2e78e4164b ours=44b7d697fb783bd5 unlearned=badd1a52c9641586 acc.ours=3e23d70a acc.unlearned=3e23d70a
42 d1e-7 final=98239e2e78e4164b ours=93f41ee3dbdcff87 unlearned=badd1a52c9641586 acc.ours=3e23d70a acc.unlearned=3e23d70a
42 d1e-6 final=98239e2e78e4164b ours=de9433cddb4591de unlearned=badd1a52c9641586 acc.ours=3e23d70a acc.unlearned=3e23d70a
42 d1e-5 final=98239e2e78e4164b ours=7b06b0c2be144ebc unlearned=badd1a52c9641586 acc.ours=3e23d70a acc.unlearned=3e23d70a
42 d1e-4 final=98239e2e78e4164b ours=1babf99ce4337df4 unlearned=badd1a52c9641586 acc.ours=3e23d70a acc.unlearned=3e23d70a
42 d1e-3 final=98239e2e78e4164b ours=6ac961308fab3fca unlearned=badd1a52c9641586 acc.ours=3e2e147b acc.unlearned=3e23d70a
42 d3e-3 final=98239e2e78e4164b ours=669c38b336457038 unlearned=badd1a52c9641586 acc.ours=3e23d70a acc.unlearned=3e23d70a
42 d1e-2 final=98239e2e78e4164b ours=0ed1a42603c9088d unlearned=badd1a52c9641586 acc.ours=3e23d70a acc.unlearned=3e23d70a
42 d3e-2 final=98239e2e78e4164b ours=21efd738e6185ffe unlearned=badd1a52c9641586 acc.ours=3e3851ec acc.unlearned=3e23d70a
42 d1e-1 final=98239e2e78e4164b ours=f66b089a3add0dda unlearned=badd1a52c9641586 acc.ours=3dcccccd acc.unlearned=3e23d70a
101 base final=9b516fb37d48eba1 ours=e662e83c9129d157 unlearned=8da112232215e202 acc.ours=3e051eb8 acc.unlearned=3db851ec
101 d1e-8 final=9b516fb37d48eba1 ours=3d7a14374ffc6853 unlearned=8da112232215e202 acc.ours=3e051eb8 acc.unlearned=3db851ec
101 d1e-7 final=9b516fb37d48eba1 ours=a54e62c83635ac74 unlearned=8da112232215e202 acc.ours=3e051eb8 acc.unlearned=3db851ec
101 d1e-6 final=9b516fb37d48eba1 ours=e662e83c9129d157 unlearned=8da112232215e202 acc.ours=3e051eb8 acc.unlearned=3db851ec
101 d1e-5 final=9b516fb37d48eba1 ours=3b97184bfd45add2 unlearned=8da112232215e202 acc.ours=3e051eb8 acc.unlearned=3db851ec
101 d1e-4 final=9b516fb37d48eba1 ours=11e596d6579b4566 unlearned=8da112232215e202 acc.ours=3e051eb8 acc.unlearned=3db851ec
101 d1e-3 final=9b516fb37d48eba1 ours=0c4ce8fcfe82213f unlearned=8da112232215e202 acc.ours=3df5c28f acc.unlearned=3db851ec
101 d3e-3 final=9b516fb37d48eba1 ours=07dfd66b7d72138a unlearned=8da112232215e202 acc.ours=3e23d70a acc.unlearned=3db851ec
101 d1e-2 final=9b516fb37d48eba1 ours=ef30221dc4e6c631 unlearned=8da112232215e202 acc.ours=3e6b851f acc.unlearned=3db851ec
101 d3e-2 final=9b516fb37d48eba1 ours=a448a0ecdc08f3bd unlearned=8da112232215e202 acc.ours=3e2e147b acc.unlearned=3db851ec
101 d1e-1 final=9b516fb37d48eba1 ours=8960bb20c74ba5c3 unlearned=8da112232215e202 acc.ours=3dcccccd acc.unlearned=3db851ec
202 base final=b5755c6c36b9b52a ours=7d725ea1a106d8f8 unlearned=16aa7eba5c4b6078 acc.ours=3e23d70a acc.unlearned=3d8f5c29
202 d1e-8 final=b5755c6c36b9b52a ours=0fceb6b205ec49da unlearned=16aa7eba5c4b6078 acc.ours=3e23d70a acc.unlearned=3d8f5c29
202 d1e-7 final=b5755c6c36b9b52a ours=df3908c6e789e58a unlearned=16aa7eba5c4b6078 acc.ours=3e23d70a acc.unlearned=3d8f5c29
202 d1e-6 final=b5755c6c36b9b52a ours=7d725ea1a106d8f8 unlearned=16aa7eba5c4b6078 acc.ours=3e23d70a acc.unlearned=3d8f5c29
202 d1e-5 final=b5755c6c36b9b52a ours=804811c3ef394cfe unlearned=16aa7eba5c4b6078 acc.ours=3e23d70a acc.unlearned=3d8f5c29
202 d1e-4 final=b5755c6c36b9b52a ours=8e91f66dc7e58b3e unlearned=16aa7eba5c4b6078 acc.ours=3e23d70a acc.unlearned=3d8f5c29
202 d1e-3 final=b5755c6c36b9b52a ours=fa3406b22f672099 unlearned=16aa7eba5c4b6078 acc.ours=3e23d70a acc.unlearned=3d8f5c29
202 d3e-3 final=b5755c6c36b9b52a ours=6ea989151bf55d07 unlearned=16aa7eba5c4b6078 acc.ours=3e19999a acc.unlearned=3d8f5c29
202 d1e-2 final=b5755c6c36b9b52a ours=5c484ca0b7768797 unlearned=16aa7eba5c4b6078 acc.ours=3e23d70a acc.unlearned=3d8f5c29
202 d3e-2 final=b5755c6c36b9b52a ours=3e209b66ab0f51bf unlearned=16aa7eba5c4b6078 acc.ours=3e428f5c acc.unlearned=3d8f5c29
202 d1e-1 final=b5755c6c36b9b52a ours=92894d3524cf4185 unlearned=16aa7eba5c4b6078 acc.ours=3e428f5c acc.unlearned=3d8f5c29
";

#[test]
fn fig3_delta_sweep_is_pinned() {
    assert_pins(FIG3, FIG3_PINS);
}

/// Departures (Challenge II): FedRecover only queries vehicles still in
/// range. 45 rounds so its every-20-rounds corrections actually fire.
const CHURN: &str = concat!(
    r#"{"id":"t","task":"tiny","methods":["ours","fedrecover"],"#,
    r#""overrides":{"rounds":45,"departure_round":22},"#,
    r#""variants":[{"name":"depart30","overrides":{"departing_fraction":0.3}},"#,
    r#"{"name":"depart60","overrides":{"departing_fraction":0.6}}]}"#
);

const CHURN_PINS: &str = "
42 base fedrecover=e1de6891b6adc0e0 final=d4e16da81e198189 ours=1dbb0066a9e4f87b acc.fedrecover=3ea8f5c3 acc.ours=3e800000 fedrecover.exact_queries=8
42 depart30 fedrecover=babfbec4d0f42de8 final=ff6509280d5416e3 ours=2028fc46804e9098 acc.fedrecover=3e8a3d71 acc.ours=3e6147ae fedrecover.exact_queries=4
42 depart60 fedrecover=7aa74bfacf0e5440 final=54018d534b06f07d ours=bc7df5b78866df04 acc.fedrecover=3e8a3d71 acc.ours=3e800000 fedrecover.exact_queries=2
101 base fedrecover=03cf05315a0cc980 final=17e30fe3e5397265 ours=58e44c1a9fb13d7a acc.fedrecover=3e800000 acc.ours=3e851eb8 fedrecover.exact_queries=8
101 depart30 fedrecover=b17b3ca7e3751453 final=818766f6a464399f ours=de42c22dfc8c5c32 acc.fedrecover=3e2e147b acc.ours=3df5c28f fedrecover.exact_queries=4
101 depart60 fedrecover=ff5442f78c030771 final=bef7300cf6df6dd6 ours=ada59d49669097d5 acc.fedrecover=3e570a3d acc.ours=3e570a3d fedrecover.exact_queries=2
202 base fedrecover=344f1ee80bbe4e9f final=794b25c10c1e7834 ours=b940c654c5fd28ce acc.fedrecover=3ec7ae14 acc.ours=3e6147ae fedrecover.exact_queries=8
202 depart30 fedrecover=5b251bd5046c9873 final=a1b398e0467833f4 ours=5069ede9370fdb8e acc.fedrecover=3eb851ec acc.ours=3e2e147b fedrecover.exact_queries=4
202 depart60 fedrecover=412e6a318dc366b0 final=cadb4a01766fcd1d ours=03f67f2e36fee434 acc.fedrecover=3e851eb8 acc.ours=3e3851ec fedrecover.exact_queries=2
";

#[test]
fn departures_cut_fedrecover_queries_and_are_pinned() {
    assert_pins(CHURN, CHURN_PINS);
}

/// The recovery design-choice ablations.
const ABLATION: &str = concat!(
    r#"{"id":"t","task":"tiny","methods":["ours"],"variants":["#,
    r#"{"name":"no-hessian","overrides":{"hessian_correction":false}},"#,
    r#"{"name":"s1","overrides":{"buffer_size":1}},"#,
    r#"{"name":"s4","overrides":{"buffer_size":4}},"#,
    r#"{"name":"s8","overrides":{"buffer_size":8}},"#,
    r#"{"name":"refresh5","overrides":{"pair_refresh_interval":5}},"#,
    r#"{"name":"refresh-never","overrides":{"pair_refresh_interval":10000}},"#,
    r#"{"name":"patience5","overrides":{"divergence_patience":5}},"#,
    r#"{"name":"L0.5","overrides":{"clip_threshold":0.5}},"#,
    r#"{"name":"L2","overrides":{"clip_threshold":2.0}}]}"#
);

const ABLATION_PINS: &str = "
42 base final=98239e2e78e4164b ours=de9433cddb4591de acc.ours=3e23d70a
42 no-hessian final=98239e2e78e4164b ours=1872966ff159a2b2 acc.ours=3e2e147b
42 s1 final=98239e2e78e4164b ours=7afcb088b6a13d5d acc.ours=3e23d70a
42 s4 final=98239e2e78e4164b ours=de9433cddb4591de acc.ours=3e23d70a
42 s8 final=98239e2e78e4164b ours=de9433cddb4591de acc.ours=3e23d70a
42 refresh5 final=98239e2e78e4164b ours=e763f29e4157124f acc.ours=3e23d70a
42 refresh-never final=98239e2e78e4164b ours=de9433cddb4591de acc.ours=3e23d70a
42 patience5 final=98239e2e78e4164b ours=07437cb35a8d4ae5 acc.ours=3e23d70a
42 L0.5 final=98239e2e78e4164b ours=46df21b775d3ae12 acc.ours=3e2e147b
42 L2 final=98239e2e78e4164b ours=ff409e5d89b59800 acc.ours=3e23d70a
101 base final=9b516fb37d48eba1 ours=e662e83c9129d157 acc.ours=3e051eb8
101 no-hessian final=9b516fb37d48eba1 ours=7fbfd5ffedace8d5 acc.ours=3df5c28f
101 s1 final=9b516fb37d48eba1 ours=c3c9a0d21eadd7cf acc.ours=3df5c28f
101 s4 final=9b516fb37d48eba1 ours=e662e83c9129d157 acc.ours=3e051eb8
101 s8 final=9b516fb37d48eba1 ours=e662e83c9129d157 acc.ours=3e051eb8
101 refresh5 final=9b516fb37d48eba1 ours=bce3146f5c8610a1 acc.ours=3e051eb8
101 refresh-never final=9b516fb37d48eba1 ours=e662e83c9129d157 acc.ours=3e051eb8
101 patience5 final=9b516fb37d48eba1 ours=9e728e9b6199616d acc.ours=3e051eb8
101 L0.5 final=9b516fb37d48eba1 ours=c94ce4915938b6c6 acc.ours=3df5c28f
101 L2 final=9b516fb37d48eba1 ours=31cd8aca294e793c acc.ours=3e051eb8
202 base final=b5755c6c36b9b52a ours=7d725ea1a106d8f8 acc.ours=3e23d70a
202 no-hessian final=b5755c6c36b9b52a ours=7dee2dbf73f9c3df acc.ours=3e23d70a
202 s1 final=b5755c6c36b9b52a ours=68fcec7acbf5fe3d acc.ours=3e23d70a
202 s4 final=b5755c6c36b9b52a ours=7d725ea1a106d8f8 acc.ours=3e23d70a
202 s8 final=b5755c6c36b9b52a ours=7d725ea1a106d8f8 acc.ours=3e23d70a
202 refresh5 final=b5755c6c36b9b52a ours=074fd33effa65c42 acc.ours=3e23d70a
202 refresh-never final=b5755c6c36b9b52a ours=7d725ea1a106d8f8 acc.ours=3e23d70a
202 patience5 final=b5755c6c36b9b52a ours=c7e48ccbf88dc4cd acc.ours=3e23d70a
202 L0.5 final=b5755c6c36b9b52a ours=5c6bb24f3bd30b67 acc.ours=3df5c28f
202 L2 final=b5755c6c36b9b52a ours=a4b5e62a16ba0a4c acc.ours=3e23d70a
";

#[test]
fn recovery_ablations_are_pinned() {
    assert_pins(ABLATION, ABLATION_PINS);
}

/// Checkpoint thinning: recover on every k-th model with interpolation.
const THINNING: &str = concat!(
    r#"{"id":"t","task":"tiny","methods":["ours"],"overrides":{"keep_models_every":1},"variants":["#,
    r#"{"name":"k2","overrides":{"keep_models_every":2}},"#,
    r#"{"name":"k5","overrides":{"keep_models_every":5}},"#,
    r#"{"name":"k10","overrides":{"keep_models_every":10}},"#,
    r#"{"name":"k25","overrides":{"keep_models_every":25}}]}"#
);

const THINNING_PINS: &str = "
42 base final=98239e2e78e4164b ours=de9433cddb4591de acc.ours=3e23d70a thinning.model_bytes=258440 thinning.models_stored=13
42 k2 final=98239e2e78e4164b ours=a23edf1ff5de7a84 acc.ours=3e23d70a thinning.model_bytes=139160 thinning.models_stored=7
42 k5 final=98239e2e78e4164b ours=572bd75b0ad886b9 acc.ours=3e23d70a thinning.model_bytes=99400 thinning.models_stored=5
42 k10 final=98239e2e78e4164b ours=eaf6ab7c2515d4fa acc.ours=3e19999a thinning.model_bytes=79520 thinning.models_stored=4
42 k25 final=98239e2e78e4164b ours=a64855dc7a71b7a4 acc.ours=3e0f5c29 thinning.model_bytes=59640 thinning.models_stored=3
101 base final=9b516fb37d48eba1 ours=e662e83c9129d157 acc.ours=3e051eb8 thinning.model_bytes=258440 thinning.models_stored=13
101 k2 final=9b516fb37d48eba1 ours=58b995f6b5151b3f acc.ours=3e6147ae thinning.model_bytes=139160 thinning.models_stored=7
101 k5 final=9b516fb37d48eba1 ours=02f33209c5189e41 acc.ours=3e6147ae thinning.model_bytes=99400 thinning.models_stored=5
101 k10 final=9b516fb37d48eba1 ours=47ad3eacd64b5ef0 acc.ours=3e75c28f thinning.model_bytes=79520 thinning.models_stored=4
101 k25 final=9b516fb37d48eba1 ours=6720ba346bd36fda acc.ours=3e6b851f thinning.model_bytes=59640 thinning.models_stored=3
202 base final=b5755c6c36b9b52a ours=7d725ea1a106d8f8 acc.ours=3e23d70a thinning.model_bytes=258440 thinning.models_stored=13
202 k2 final=b5755c6c36b9b52a ours=a5a29388f5c6a125 acc.ours=3e3851ec thinning.model_bytes=139160 thinning.models_stored=7
202 k5 final=b5755c6c36b9b52a ours=93a5bc70f7b8ce36 acc.ours=3e6b851f thinning.model_bytes=99400 thinning.models_stored=5
202 k10 final=b5755c6c36b9b52a ours=ba5f4f7e2ee9b052 acc.ours=3e6b851f thinning.model_bytes=79520 thinning.models_stored=4
202 k25 final=b5755c6c36b9b52a ours=1d4e6f1632ee55ab acc.ours=3e6147ae thinning.model_bytes=59640 thinning.models_stored=3
";

#[test]
fn checkpoint_thinning_is_pinned() {
    assert_pins(THINNING, THINNING_PINS);
}

/// The IoT task's sign-replay column (ours without Eq. 6).
const SIGN_REPLAY: &str = r#"{"id":"t","task":"tiny","methods":["sign_replay"]}"#;

const SIGN_REPLAY_PINS: &str = "
42 base final=98239e2e78e4164b sign_replay=1872966ff159a2b2 acc.sign_replay=3e2e147b
101 base final=9b516fb37d48eba1 sign_replay=7fbfd5ffedace8d5 acc.sign_replay=3df5c28f
202 base final=b5755c6c36b9b52a sign_replay=7dee2dbf73f9c3df acc.sign_replay=3e23d70a
";

#[test]
fn lab_sign_replay_reproduces_the_iot_ablation_bitwise() {
    assert_pins(SIGN_REPLAY, SIGN_REPLAY_PINS);
}
