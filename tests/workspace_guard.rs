//! Guards the workspace-test footgun: because the root manifest doubles as
//! the `fuiov` facade package, a bare `cargo test` from the repo root runs
//! ONLY this package's suites. These checks pin the defences — the tier-1
//! script must use `--workspace` (or target a specific `-p` package), and
//! the manifests must keep the warning and the `cargo t` alias — so the
//! trap cannot silently reopen.

use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn tier1_never_runs_a_bare_cargo_test() {
    let script = fs::read_to_string(root().join("scripts/tier1.sh")).expect("tier1.sh exists");
    assert!(
        script.contains("cargo test --workspace"),
        "tier1.sh must run the full workspace suite"
    );
    for (i, line) in script.lines().enumerate() {
        let code = line.split('#').next().unwrap_or("");
        if code.contains("grep") || code.contains("echo") {
            continue; // the guard stage talks about the pattern it bans
        }
        if let Some(pos) = code.find("cargo test") {
            let rest = &code[pos..];
            assert!(
                rest.contains("--workspace") || rest.contains("-p "),
                "tier1.sh line {}: bare `cargo test` would silently skip crates/*: {line}",
                i + 1
            );
        }
    }
}

#[test]
fn manifest_documents_the_footgun_and_alias_covers_it() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("Cargo.toml exists");
    assert!(
        manifest.contains("cargo test --workspace"),
        "the workspace manifest must warn about bare `cargo test`"
    );
    let config = fs::read_to_string(root().join(".cargo/config.toml")).expect("config exists");
    assert!(
        config.contains("t = \"test --workspace\""),
        ".cargo/config.toml must alias `cargo t` to the workspace suite"
    );
}

#[test]
fn ci_runs_the_same_stages_as_tier1() {
    // CI must not drift from the local gate: every stage it invokes goes
    // through scripts/tier1.sh, and the stages it names must exist there.
    let ci = fs::read_to_string(root().join(".github/workflows/ci.yml")).expect("ci.yml exists");
    let script = fs::read_to_string(root().join("scripts/tier1.sh")).expect("tier1.sh exists");
    let mut invoked = 0;
    for line in ci.lines() {
        let line = line.trim();
        let Some(args) = line.strip_prefix("run: bash scripts/tier1.sh") else {
            continue;
        };
        for stage in args.split_whitespace() {
            invoked += 1;
            assert!(
                script.contains(&format!("stage_{stage}()")),
                "ci.yml invokes unknown tier1 stage `{stage}`"
            );
        }
    }
    assert!(
        invoked >= 10,
        "ci.yml must drive its checks through tier1.sh stages, found {invoked}"
    );
    // And the other way round: every stage tier1.sh runs is a CI step.
    let all = script
        .lines()
        .find_map(|l| l.strip_prefix("ALL_STAGES=\""))
        .and_then(|l| l.strip_suffix('"'))
        .expect("tier1.sh lists ALL_STAGES");
    for stage in all.split_whitespace() {
        assert!(
            ci.lines()
                .filter_map(|l| l.trim().strip_prefix("run: bash scripts/tier1.sh"))
                .any(|args| args.split_whitespace().any(|s| s == stage)),
            "tier1.sh stage `{stage}` has no CI step in ci.yml"
        );
    }
}

#[test]
fn ci_seed_matrices_match_the_seed_matrix_file() {
    // The fault seeds are single-sourced in scripts/seed_matrix.txt
    // (tier1.sh reads it at run time). GitHub job matrices cannot read
    // files, so ci.yml repeats the values — this test is the drift gate.
    let seeds = fs::read_to_string(root().join("scripts/seed_matrix.txt"))
        .expect("scripts/seed_matrix.txt exists");
    let seeds: Vec<&str> = seeds.split_whitespace().collect();
    assert!(
        !seeds.is_empty(),
        "seed_matrix.txt must list at least one seed"
    );
    let expected = format!("seed: [{}]", seeds.join(", "));

    let script = fs::read_to_string(root().join("scripts/tier1.sh")).expect("tier1.sh exists");
    assert!(
        script.contains("seed_matrix.txt"),
        "tier1.sh must default its fault seeds from scripts/seed_matrix.txt"
    );

    let ci = fs::read_to_string(root().join(".github/workflows/ci.yml")).expect("ci.yml exists");
    let mut matrices = 0;
    for (i, line) in ci.lines().enumerate() {
        let line = line.trim();
        if line.starts_with("seed: [") {
            matrices += 1;
            assert_eq!(
                line,
                expected,
                "ci.yml line {}: seed matrix drifted from scripts/seed_matrix.txt",
                i + 1
            );
        }
    }
    assert!(
        matrices >= 4,
        "ci.yml should fan out at least the fault-matrix, job-resume, scale, \
         and lab jobs over the seed matrix, found {matrices}"
    );
}

/// The ids of every row in `scenarios.jsonl` (comment and blank lines
/// skipped; each row line carries one `"id":"…"`).
fn matrix_row_ids() -> Vec<String> {
    let matrix = fs::read_to_string(root().join("scenarios.jsonl")).expect("scenarios.jsonl");
    matrix
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let rest = &l[l.find("\"id\":\"").expect("row has an id") + 6..];
            rest[..rest.find('"').expect("id is a string")].to_string()
        })
        .collect()
}

#[test]
fn experiments_cite_only_rows_that_exist() {
    // Every measured table in EXPERIMENTS.md names the `lab run --rows`
    // that regenerates it; a renamed or deleted row must not leave a
    // table pointing at nothing.
    let ids = matrix_row_ids();
    let doc = fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut cited = 0;
    for (i, line) in doc.lines().enumerate() {
        for (pos, _) in line.match_indices("--rows ") {
            let list = &line[pos + "--rows ".len()..];
            let end = list
                .find(|c: char| c.is_whitespace() || c == '`' || c == ')')
                .unwrap_or(list.len());
            for id in list[..end].split(',') {
                cited += 1;
                assert!(
                    ids.iter().any(|r| r == id),
                    "EXPERIMENTS.md line {}: row `{id}` is not in scenarios.jsonl",
                    i + 1
                );
            }
        }
    }
    assert!(
        cited >= 15,
        "EXPERIMENTS.md should name the rows behind its tables, found {cited}"
    );
}

#[test]
fn docs_name_only_exp_binaries_that_exist() {
    let bins = root().join("crates/bench/src/bin");
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root().join(doc)).expect("doc exists");
        for (i, line) in text.lines().enumerate() {
            for (pos, _) in line.match_indices("exp_") {
                let word_start = line[..pos]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
                let name: String = line[pos..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !word_start || name == "exp_" {
                    continue; // part of a longer word, or the `exp_*` glob
                }
                assert!(
                    bins.join(format!("{name}.rs")).exists(),
                    "{doc} line {}: names `{name}`, which is not a binary in crates/bench",
                    i + 1
                );
            }
        }
    }
}

/// Identifiers a crate's `lib.rs` declares (`pub fn`, `pub struct`, …,
/// `macro_rules!`) or names anywhere in a `pub use` statement.
fn lib_items(krate: &Path) -> Vec<String> {
    let lib = fs::read_to_string(krate.join("src/lib.rs")).unwrap_or_default();
    let code: String = lib
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let words = |s: &str| -> Vec<String> {
        s.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect()
    };
    let mut items = Vec::new();
    for stmt in code.split(';') {
        if let Some(pos) = stmt.find("pub use ") {
            items.extend(words(&stmt[pos..]));
        }
    }
    const DECLARERS: [&str; 9] = [
        "mod",
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "macro_rules",
    ];
    let tokens = words(&code);
    for pair in tokens.windows(2) {
        if DECLARERS.contains(&pair[0].as_str()) {
            items.push(pair[1].clone());
        }
    }
    items
}

/// Whether `path` (module names, outermost first) names a module file
/// under `src/` of `krate`; a single name may also be a binary target.
fn is_module_file(krate: &Path, path: &[&str]) -> bool {
    let dir = path.iter().fold(krate.join("src"), |d, seg| d.join(seg));
    dir.with_extension("rs").exists()
        || dir.join("mod.rs").exists()
        || (path.len() == 1
            && krate
                .join("src/bin")
                .join(format!("{}.rs", path[0]))
                .exists())
}

/// The names one path segment stands for: `name`, or each entry of a
/// `{a, b/c}` group (commas and slashes both separate entries).
fn segment_names(seg: &str) -> Vec<&str> {
    seg.trim()
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split([',', '/'])
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .collect()
}

#[test]
fn docs_name_only_modules_that_exist() {
    let crates_dir = root().join("crates");
    let mut bad = Vec::new();
    // Inline code spans naming `<crate>::<name>` (or `fuiov_<crate>::<name>`):
    // `<name>` must be a module file of the crate or an item its lib.rs
    // declares or re-exports.
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root().join(doc)).expect("doc exists");
        for (i, line) in text.lines().enumerate() {
            for span in line.split('`').skip(1).step_by(2) {
                for (pos, _) in span.match_indices("::") {
                    let head = &span[..pos];
                    let word = head
                        .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .next()
                        .unwrap_or("");
                    // `fuiov_fl::…` is the crate `fl` under its package name.
                    let first = word.strip_prefix("fuiov_").unwrap_or(word);
                    let krate = crates_dir.join(first);
                    if first.is_empty() || !krate.is_dir() {
                        continue;
                    }
                    let rest = &span[pos + 2..];
                    let name = if rest.starts_with('{') {
                        &rest[..rest.find('}').map_or(rest.len(), |e| e + 1)]
                    } else {
                        let end = rest
                            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                            .unwrap_or(rest.len());
                        &rest[..end]
                    };
                    let items = lib_items(&krate);
                    for n in segment_names(name) {
                        if !(is_module_file(&krate, &[n]) || items.iter().any(|it| it == n)) {
                            bad.push(format!(
                                "{doc} line {}: `{first}::{n}` is neither a module of \
                                 crates/{first} nor an item its lib.rs declares or re-exports",
                                i + 1
                            ));
                        }
                    }
                }
            }
        }
    }

    // DESIGN §3's crate table: every entry of a *Key modules* cell (a code
    // span opening a top-level, comma-separated item) is a module file.
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let section = &design[design.find("## 3.").expect("DESIGN §3")..];
    let section = &section[..section[5..].find("\n## ").map_or(section.len(), |e| e + 5)];
    let mut rows = 0;
    for line in section.lines().filter(|l| l.starts_with("| `crates/")) {
        let cells: Vec<&str> = line.split('|').collect();
        let krate_name = cells[1]
            .split('`')
            .nth(1)
            .and_then(|p| p.strip_prefix("crates/"))
            .expect("crate cell names crates/<dir>");
        let krate = crates_dir.join(krate_name);
        rows += 1;
        let (mut depth, mut in_code, mut start) = (0i32, false, 0);
        let cell = cells[3];
        let mut items = Vec::new();
        for (j, c) in cell.char_indices() {
            match c {
                '`' => in_code = !in_code,
                '(' if !in_code => depth += 1,
                ')' if !in_code => depth -= 1,
                ',' if !in_code && depth == 0 => {
                    items.push(&cell[start..j]);
                    start = j + 1;
                }
                _ => {}
            }
        }
        items.push(&cell[start..]);
        for item in items {
            let Some(entry) = item
                .trim()
                .strip_prefix('`')
                .and_then(|s| s.split('`').next())
            else {
                continue;
            };
            if entry.contains('.') {
                continue; // a file such as `benches/micro.rs`, not a module
            }
            let segs: Vec<&str> = entry.split("::").collect();
            let (last, parents) = segs.split_last().expect("non-empty entry");
            for n in segment_names(last) {
                let mut path = parents.to_vec();
                path.push(n);
                if !is_module_file(&krate, &path) {
                    bad.push(format!(
                        "DESIGN §3: `{}` in the crates/{krate_name} row is not a module file",
                        path.join("::")
                    ));
                }
            }
        }
    }
    assert!(
        rows >= 10,
        "DESIGN §3 should list every crate, found {rows}"
    );
    assert!(
        bad.is_empty(),
        "docs name missing modules:\n{}",
        bad.join("\n")
    );
}

/// Every `FUIOV_*` name in `text`, with its byte range.
fn fuiov_names(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (start, _) in text.match_indices("FUIOV_") {
        if text[..start]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            continue; // inside a longer identifier
        }
        let len = text[start + 6..]
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(text.len() - start - 6);
        if len > 0 {
            out.push((start, start + 6 + len));
        }
    }
    out
}

/// The code of one Rust source line: everything before a `//` that is
/// not inside a string literal.
fn rust_code(line: &str) -> &str {
    let (mut in_str, mut escaped) = (false, false);
    let bytes = line.as_bytes();
    for i in 0..bytes.len() {
        match bytes[i] {
            _ if escaped => escaped = false,
            b'\\' if in_str => escaped = true,
            b'"' => in_str = !in_str,
            b'/' if !in_str && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The code of one shell, YAML or Python line: everything before a `#`
/// that opens the line or follows whitespace.
fn script_code(line: &str) -> &str {
    let cut = line
        .char_indices()
        .find(|&(i, c)| c == '#' && (i == 0 || line[..i].ends_with([' ', '\t'])))
        .map_or(line.len(), |(i, _)| i);
    &line[..cut]
}

/// Collects the `FUIOV_*` variables the code under `dir` reads or sets:
/// string literals in Rust code, assignments and expansions in scripts,
/// workflows and Python. Comments do not count.
fn variables_in_code(dir: &Path, found: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            variables_in_code(&path, found);
            continue;
        }
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        if !["rs", "sh", "yml", "py"].contains(&ext) {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap_or_default();
        for line in text.lines() {
            let code = if ext == "rs" {
                rust_code(line)
            } else {
                script_code(line)
            };
            for (s, e) in fuiov_names(code) {
                let used = if ext == "rs" {
                    code[..s].ends_with('"') && code[e..].starts_with('"')
                } else {
                    code[e..].starts_with('=')
                        || code[..s].ends_with('$')
                        || code[..s].ends_with("${")
                };
                if used {
                    found.push(code[s..e].to_string());
                }
            }
        }
    }
}

#[test]
fn docs_name_only_env_vars_the_code_reads() {
    let mut in_code = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "scripts", ".github"] {
        variables_in_code(&root().join(dir), &mut in_code);
    }
    let mut bad = Vec::new();
    let mut documented = 0;
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root().join(doc)).expect("doc exists");
        for (i, line) in text.lines().enumerate() {
            for (s, e) in fuiov_names(line) {
                documented += 1;
                let name = &line[s..e];
                if !in_code.iter().any(|n| n == name) {
                    bad.push(format!(
                        "{doc} line {}: `{name}` is read or set by no code",
                        i + 1
                    ));
                }
            }
        }
    }
    assert!(documented > 0, "the docs name no FUIOV_* variable at all");
    assert!(
        bad.is_empty(),
        "docs name environment variables nothing reads:\n{}",
        bad.join("\n")
    );
}
