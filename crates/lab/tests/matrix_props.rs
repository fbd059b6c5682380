//! Property suite for the scenario-matrix parser and the plan expander:
//! render/parse round-trips, strict rejection of unknown fields and
//! duplicate ids with *typed* errors, and bitwise-deterministic plan
//! expansion (the "same matrix + same seed → same trials" contract that
//! CI's fingerprint logs rely on).

use fuiov_lab::json::{Json, MAX_DEPTH};
use fuiov_lab::matrix::{
    parse_matrix, render_matrix, MatrixError, Method, Overrides, ScenarioRow, Task, Variant,
};
use fuiov_lab::plan::{expand, plan_fingerprint, PlanFilter};
use proptest::prelude::*;

/// A short lowercase identifier.
fn ident() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..26, 1..8)
        .prop_map(|ixs| ixs.into_iter().map(|i| (b'a' + i as u8) as char).collect())
}

/// Wraps a strategy in a coin-flipped `Option`.
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| if some { Some(v) } else { None })
}

/// A random subset of the override schema (every value chosen so the
/// JSON round-trip is exact: integers, f32-representable floats, enums).
fn overrides_strategy() -> impl Strategy<Value = Overrides> {
    (
        opt(1usize..200),
        opt(2usize..32),
        opt(1u32..1000),
        opt(1u32..1000),
        opt(any::<bool>()),
        opt(0usize..2),
    )
        .prop_map(
            |(rounds, n_clients, lr_m, clip_m, hessian, attack_ix)| Overrides {
                rounds,
                n_clients,
                lr: lr_m.map(|m| m as f32 / 1000.0),
                clip_threshold: clip_m.map(|m| m as f32 / 100.0),
                hessian_correction: hessian,
                attack: attack_ix.map(|i| ["label_flip", "backdoor"][i].to_string()),
                ..Overrides::default()
            },
        )
}

fn row_strategy() -> impl Strategy<Value = ScenarioRow> {
    (
        (ident(), 0usize..4, 1u32..4, any::<u32>(), any::<bool>()),
        (
            overrides_strategy(),
            prop::collection::vec((ident(), overrides_strategy()), 0..3),
        ),
    )
        .prop_map(
            |((id, task_ix, repeats, base_seed, smoke), (overrides, variants))| {
                // Variant names must be unique within the row; suffix the
                // position so collisions cannot occur.
                let variants: Vec<Variant> = variants
                    .into_iter()
                    .enumerate()
                    .map(|(i, (name, overrides))| Variant {
                        name: format!("{name}{i}"),
                        overrides,
                    })
                    .collect();
                ScenarioRow {
                    id,
                    task: Task::ALL[task_ix],
                    repeats,
                    base_seed: u64::from(base_seed),
                    smoke,
                    note: String::new(),
                    methods: Method::table1_set(),
                    evals: Vec::new(),
                    forget_malicious: false,
                    overrides,
                    variants,
                    asserts: Vec::new(),
                }
            },
        )
}

/// A whole matrix with ids made unique by position (duplicate ids are a
/// separate property).
fn matrix_strategy() -> impl Strategy<Value = Vec<ScenarioRow>> {
    prop::collection::vec(row_strategy(), 1..5).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.id = format!("{}-{i}", r.id);
                r
            })
            .collect()
    })
}

const ROW_FIELDS: [&str; 12] = [
    "id",
    "task",
    "repeats",
    "base_seed",
    "smoke",
    "note",
    "methods",
    "evals",
    "forget_malicious",
    "overrides",
    "variants",
    "asserts",
];

proptest! {
    #[test]
    fn render_parse_round_trips(rows in matrix_strategy()) {
        let rendered = render_matrix(&rows);
        let reparsed = parse_matrix(&rendered).expect("rendered matrix reparses");
        prop_assert_eq!(reparsed, rows);
    }

    #[test]
    fn unknown_fields_are_typed_errors(rows in matrix_strategy(), key in ident()) {
        prop_assume!(!ROW_FIELDS.contains(&key.as_str()));
        let rendered = render_matrix(&rows);
        // Graft the unknown key onto the first row's object.
        let line = rendered.lines().next().unwrap();
        let sabotaged = format!(
            "{},\"{key}\":1{}",
            &line[..line.len() - 1],
            &line[line.len() - 1..]
        );
        match parse_matrix(&sabotaged) {
            Err(MatrixError::UnknownField { line: 1, field }) => {
                prop_assert_eq!(field, key);
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn unknown_override_keys_are_typed_errors(key in ident()) {
        prop_assume!(!Overrides::known_keys().any(|k| k == key));
        let src = format!(r#"{{"id":"a","task":"tiny","overrides":{{"{key}":1}}}}"#);
        match parse_matrix(&src) {
            Err(MatrixError::UnknownField { line: 1, field }) => {
                prop_assert_eq!(field, format!("overrides.{key}"));
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_ids_are_typed_errors(rows in matrix_strategy()) {
        let mut doubled = rows.clone();
        doubled.push(rows[0].clone());
        let rendered = render_matrix(&doubled);
        match parse_matrix(&rendered) {
            Err(MatrixError::DuplicateId { id, .. }) => {
                prop_assert_eq!(id, rows[0].id.clone());
            }
            other => panic!("expected DuplicateId, got {other:?}"),
        }
    }

    #[test]
    fn expansion_is_bitwise_deterministic(rows in matrix_strategy()) {
        let a = expand(&rows, &PlanFilter::default());
        let b = expand(&rows, &PlanFilter::default());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(plan_fingerprint(&a), plan_fingerprint(&b));
        // And through a render/parse cycle: the matrix file is the
        // canonical form, so plans survive it bitwise too.
        let reparsed = parse_matrix(&render_matrix(&rows)).unwrap();
        let c = expand(&reparsed, &PlanFilter::default());
        prop_assert_eq!(plan_fingerprint(&a), plan_fingerprint(&c));
    }

    #[test]
    fn seed_override_shifts_every_trial(
        rows in matrix_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let plans = expand(
            &rows,
            &PlanFilter { seed_override: Some(seed), ..Default::default() },
        );
        for p in &plans {
            prop_assert_eq!(p.seed, seed + u64::from(p.repeat));
        }
    }
}

#[test]
fn nesting_is_capped_at_max_depth() {
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
    let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
    assert_eq!(err.pos, MAX_DEPTH, "the first bracket past the cap");
    // A matrix row nested deep enough to overflow a 2 MiB test thread
    // without the cap; the row's own object is the first level.
    let row = r#"{"id":"x","task":"tiny","overrides":"#;
    let deep = format!("{row}{}", "[".repeat(200_000));
    assert_eq!(
        Json::parse(&deep).unwrap_err().pos,
        row.len() + MAX_DEPTH - 1
    );
    assert!(matches!(
        parse_matrix(&deep),
        Err(MatrixError::BadJson { line: 1, .. })
    ));
}

/// Override values that a builder would `assert!` on are refused when the
/// matrix is parsed, naming the field — at the row level and inside a
/// variant — so a `lab run` over such a row fails typed before any trial
/// starts instead of panicking mid-run.
#[test]
fn values_a_builder_would_panic_on_are_refused_at_parse() {
    let cases = [
        ("rounds", "0"),
        ("lr", "0"),
        ("lr", "-0.1"),
        ("lr", "1e39"),
        ("batch_size", "0"),
        ("sign_delta", "-0.5"),
        ("requantize_delta", "-0.5"),
        ("clip_threshold", "0"),
        ("clip_threshold", "-1"),
        ("clip_threshold", "1e39"),
        ("buffer_size", "0"),
        ("pair_refresh_interval", "0"),
    ];
    for (key, value) in cases {
        let row = format!(r#"{{"id":"t","task":"tiny","overrides":{{"{key}":{value}}}}}"#);
        match parse_matrix(&row) {
            Err(MatrixError::TypeMismatch { line: 1, field, .. }) => {
                assert_eq!(field, format!("overrides.{key}"), "{key} = {value}");
            }
            other => panic!("{key} = {value}: expected TypeMismatch, got {other:?}"),
        }
        let variant = format!(
            r#"{{"id":"t","task":"tiny","variants":[{{"name":"v","overrides":{{"{key}":{value}}}}}]}}"#
        );
        match parse_matrix(&variant) {
            Err(MatrixError::TypeMismatch { line: 1, field, .. }) => {
                assert_eq!(field, format!("variants[0].{key}"), "{key} = {value}");
            }
            other => panic!("variant {key} = {value}: expected TypeMismatch, got {other:?}"),
        }
    }
    // The boundary values the builders accept still parse.
    let ok = concat!(
        r#"{"id":"t","task":"tiny","overrides":{"rounds":1,"lr":1e-30,"batch_size":1,"#,
        r#""sign_delta":0,"requantize_delta":0,"clip_threshold":1e-30,"buffer_size":1,"#,
        r#""pair_refresh_interval":1}}"#
    );
    parse_matrix(ok).expect("boundary values parse");
}
