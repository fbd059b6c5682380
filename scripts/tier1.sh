#!/usr/bin/env bash
# Tier-1 gate: release build, examples, full test suite, lint-clean,
# golden traces, fault matrix, tier invariance, scenario-lab smoke, bench
# smoke, the end-to-end benchmark's own suite.
#
# Every stage is a function so CI (.github/workflows/ci.yml) and local runs
# execute the *same* commands: `scripts/tier1.sh` runs them all in order,
# `scripts/tier1.sh <stage>...` runs just the named ones. `stages` lists
# what is available.
set -euo pipefail
cd "$(dirname "$0")/.."

# Correctness stages build with the portable baseline, not the local
# machine's ISA: an *empty* RUSTFLAGS overrides the `target-cpu=native`
# in .cargo/config.toml (Cargo gives the environment variable
# precedence), so what tier 1 tests is exactly what a generic x86_64
# build ships — with the `fuiov_tensor::simd` runtime dispatcher, not
# compile-time codegen, selecting the AVX2 kernels. Local benches keep
# native codegen by just not going through this script. Opt out (e.g. to
# reproduce a native-only miscompile) with FUIOV_TIER1_NATIVE=1.
if [ "${FUIOV_TIER1_NATIVE:-0}" != "1" ]; then
  export RUSTFLAGS=""
fi

# The fault-seed matrix, single-sourced: this file is the only place the
# seed values live. CI's job matrices repeat them (GitHub can't read
# files at matrix-expansion time), so tests/workspace_guard.rs asserts
# every `seed: [...]` in ci.yml matches this file — drift fails the
# suite, not a human review.
SEED_MATRIX="$(cat scripts/seed_matrix.txt)"

# Guard the workspace footgun before anything else: a bare `cargo test -q`
# from the root only tests the `fuiov` facade package, silently skipping
# every `crates/*` suite. Fail loudly if this script ever regresses to it.
stage_guard() {
  if grep -nE '^[^#]*\bcargo test\b' "$0" | grep -vE 'grep|echo' | grep -vE -- '--workspace|-p [a-z-]+' ; then
    echo "tier1.sh: bare 'cargo test' found above — it would silently skip" >&2
    echo "every crates/* suite. Use 'cargo test --workspace' or '-p <crate>'." >&2
    exit 1
  fi
}

stage_build() {
  cargo build --release
}

stage_test() {
  cargo test --workspace -q
}

stage_fmt() {
  cargo fmt --all --check
}

stage_clippy() {
  # Every workspace crate's library, binaries, examples, tests and benches
  # (a bare `--all-targets` from the root lints only the facade's targets
  # and the member crates' libraries). The vendored stand-ins for external
  # crates stay out. Perf-sensitive crates: clones and allocation churn in
  # the replay hot loop are regressions, not style nits (see DESIGN.md
  # "Batched recovery engine").
  cargo clippy --workspace --all-targets \
    --exclude rand --exclude proptest --exclude criterion \
    --exclude crossbeam --exclude parking_lot --exclude bytes \
    -- -D warnings -D clippy::perf -D clippy::redundant_clone
}

stage_doc() {
  # Every workspace crate's docs, broken intra-doc links included (a bare
  # `cargo doc` from the root documents only the facade). The vendored
  # stand-ins stay out, as in clippy.
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest --exclude criterion \
    --exclude crossbeam --exclude parking_lot --exclude bytes
}

stage_examples() {
  # Every example builds and runs to a zero exit. They are paths that
  # reach the libraries (storage_savings asserts the checkpoint round
  # trip, poisoning_recovery the backdoor's removal), so a broken API or
  # a failed assert there fails the gate. Their stdout is not kept.
  cargo build --release --examples
  for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "-- example $name"
    "./target/release/examples/$name" > /dev/null
  done
}

stage_nn_native() {
  # The nn suite again under the host's native codegen, the configuration
  # local builds and the benchmark use: there LLVM vectorises the conv and
  # linear kernels at the host's full width (AVX2 or AVX-512) instead of
  # SSE2. Their bitwise reference tests and the CNN bit pins must hold at
  # both widths. A separate target directory keeps the portable artifacts
  # of the other stages from being rebuilt.
  RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo test -p fuiov-nn --release -q
}

stage_core_native() {
  # The core and tensor suites under native codegen too, the build the
  # benchmark runs: the replay pins (d = 4,099, tails included), the
  # L-BFGS Gram-pass, clip-pass and stack-rebuild reference tests and the
  # tensor kernels' bitwise tests must hold with LLVM vectorising at the
  # host's width, exactly as they hold in the portable `test` stage. Same
  # target directory as nn_native, so the two share dependency builds.
  RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo test -p fuiov-core -p fuiov-tensor --release -q
  # The replay pins again at pool widths 1 and 3: a replay round streams
  # its clients in blocks of lanes × width rows, so the width decides
  # where blocks end and which rows take the scalar tail path, and the
  # recovered bits and clip observations must not move with it. The
  # checkpoint rounds too: a resumed job re-stacks from decoded pairs and
  # must reproduce the sealed fingerprint, and the stacked sweep bands
  # over the row handles at the pool's width.
  for threads in 1 3; do
    FUIOV_THREADS="$threads" RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
      cargo test -p fuiov-core --release -q --test replay_pinned --test participation_pins \
        --test checkpoint_rounds
  done
}

stage_golden() {
  # Golden-trace regression (fails on any digest drift — bless intentional
  # changes with FUIOV_BLESS=1, see DESIGN.md §6).
  cargo test -p fuiov-testkit -q --test golden_trace
}

stage_fault_matrix() {
  # Fault-matrix smoke at two extra seeds beyond the suite's defaults.
  # CI fans the seeds out as a job matrix by exporting FUIOV_FAULT_SEED.
  for seed in ${FUIOV_FAULT_SEED:-$SEED_MATRIX}; do
    FUIOV_FAULT_SEED="$seed" cargo test -p fuiov-testkit -q --test fault_matrix
  done
}

stage_tier_invariance() {
  # The same golden trace with the history forced out to the spill tier
  # (tight byte budget, short keyframe interval so delta chains are
  # exercised). The pinned FNV digests must survive spill + reload
  # unchanged — bitwise tier invariance, not approximate agreement.
  FUIOV_HISTORY_BUDGET=4096 FUIOV_KEYFRAME_INTERVAL=3 \
    cargo test -p fuiov-testkit -q --test golden_trace
}

stage_jobs() {
  # Job-service crash/resume oracles under the fault matrix (CI fans the
  # seeds out via FUIOV_FAULT_SEED), plus one pass with the SIMD kill
  # switch thrown: resumed == uninterrupted must hold bitwise on both
  # kernel paths, at every checkpoint boundary, at any seed.
  for seed in ${FUIOV_FAULT_SEED:-$SEED_MATRIX}; do
    FUIOV_FAULT_SEED="$seed" cargo test -p fuiov -q --test job_resume_oracles
  done
  FUIOV_SIMD=0 cargo test -p fuiov -q --test job_resume_oracles
  # And at pool widths 1 and 3: a replay round's client blocks end where
  # the width puts them, and a preempted job resumes from a held clone
  # that shares its rows with a live stack that releases its handles on
  # them at every refresh.
  for threads in 1 3; do
    FUIOV_THREADS="$threads" cargo test -p fuiov -q --test job_resume_oracles
  done
}

stage_simd_off() {
  # The whole suite again with the SIMD kill switch thrown, pinning every
  # runtime-dispatched kernel to its scalar reference — the suite must
  # pass identically (the golden traces inside it enforce bit-identical,
  # not just both-green). The fault matrix runs once under the kill
  # switch too: fault handling must not depend on which kernel path
  # computed the numbers.
  FUIOV_SIMD=0 cargo test --workspace -q
  FUIOV_SIMD=0 cargo test -p fuiov-testkit -q --test fault_matrix
}

stage_scale() {
  # Hierarchical-cohort scale smoke: a 10^5-vehicle round plus a
  # subtree-scoped forget under a 4 KB history budget, and the pinned
  # million-vehicle resident-byte envelope. CI fans the seeds out via
  # FUIOV_FAULT_SEED.
  for seed in ${FUIOV_FAULT_SEED:-$SEED_MATRIX}; do
    FUIOV_FAULT_SEED="$seed" cargo test -p fuiov -q --test scale_smoke
  done
}

stage_net() {
  # Networked-plane oracle: socket rounds must be bitwise identical to the
  # in-process loop — clean, sign-compressed, and under the wire fault
  # plans at seeds 101/202 (torn frames, connection drops, duplicate
  # uploads) — plus the wire-codec property suite. Then the oracle again
  # with the SIMD kill switch thrown: which kernel decoded the payload
  # must not leak through the transport seam.
  cargo test -p fuiov-net -q
  FUIOV_SIMD=0 cargo test -p fuiov-net -q --test loopback_oracle
}

stage_lab() {
  # Scenario-lab smoke slice: the smoke-tagged rows of scenarios.jsonl
  # run end to end (training, backtrack, every baseline, jobs service,
  # loopback transport, MIA + reconstruction eval columns) at each fault
  # seed, and the rows' shape asserts gate the stage (non-zero exit on
  # any failed claim). One more pass with the SIMD kill switch thrown:
  # trial metrics must not depend on which kernel path computed them.
  cargo build --release -q -p fuiov-lab
  for seed in ${FUIOV_FAULT_SEED:-$SEED_MATRIX}; do
    ./target/release/lab run --smoke --seed "$seed" --out "target/lab/seed-$seed"
    FUIOV_SIMD=0 ./target/release/lab run --smoke --seed "$seed" \
      --out "target/lab/seed-$seed-simd-off"
  done
}

stage_bench_smoke() {
  # One code path owns smoke execution: `lab bench-smoke` runs every
  # benchmark (including its pre-timing bitwise differential assertions)
  # once with a minimal budget — dispatcher on and FUIOV_SIMD=0, so both
  # kernel paths stay exercised — plus the one-cell transport sweep
  # whose exact byte-reconciliation asserts run on every CI pass, then
  # gates the recorded BENCH_*.json artifacts (schema + byte-accounting
  # invariants re-checked against the comms model).
  cargo run --release -q -p fuiov-lab --bin lab -- bench-smoke
}

stage_perfbench() {
  # The end-to-end benchmark's own suite (perfbench/ is a workspace of its
  # own, so no other stage builds it): every workload at tiny shape, its
  # metric and trace contract, and the environment-knob refusal. It calls
  # the libraries only through their public APIs, so this is also the
  # check that no API it uses went away. perfbench refuses to start with
  # any FUIOV_* variable set, so the suite runs with them cleared.
  (
    for v in $(compgen -e | grep '^FUIOV_' || true); do unset "$v"; done
    CARGO_TARGET_DIR=target/perfbench \
      cargo test --release --manifest-path perfbench/Cargo.toml -p perfbench -q
  )
}

ALL_STAGES="guard build examples test nn_native core_native fmt clippy doc golden fault_matrix tier_invariance jobs scale net simd_off lab bench_smoke perfbench"

stages() {
  echo "$ALL_STAGES" | tr ' ' '\n'
}

if [ "${1:-}" = "stages" ]; then
  stages
  exit 0
fi

for stage in "${@:-$ALL_STAGES}"; do
  # Top-level "run everything" expands the list; named runs take one each.
  for s in $stage; do
    echo "== tier1: $s"
    "stage_$s"
  done
done
