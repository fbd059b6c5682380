#!/usr/bin/env python3
"""Build and run one workload of the fuiov end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR`, default `.bench_build`, then runs the
workload in a fresh process with its temporary files (history spill
segments) under the build directory, and relays its output: a revision
line, the effective configuration, and as the last line the result JSON.
With `--trace 1` the spans are written to
`<build dir>/perfbench-out/trace-<workload>-<seed>.jsonl`.

Exits non-zero without a result when the library sources are missing, the
build fails, the workload fails (the workload itself refuses to start when
any `FUIOV_*` variable is set) or it runs past its time limit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("forget-paper", "forget-storm", "train-cell", "net-rounds")
# A run must end within 180 s; stop the workload well before that.
RUN_TIMEOUT_S = 170
# Hashed into the source fingerprint printed with every result, since the
# checkout the benchmark runs in is not always a git repository.
SOURCE_DIRS = ("crates", "vendor", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates", "core")):
        fail("library sources (crates/) not found next to perfbench/")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", 1)

    tmp = os.path.join(target, "perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    out_dir = os.path.join(target, "perfbench-out")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(
            cmd,
            cwd=ROOT,
            env=dict(env, TMPDIR=tmp),
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}", run.returncode)

    lines = run.stdout.rstrip("\n").splitlines()
    revision = {"kind": "revision", "git": git_revision(), "source_sha256": source_digest()}
    print(json.dumps(revision))
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
