#!/usr/bin/env python3
"""perfbench: the end-to-end tuning benchmark of portatune.

Builds the harness (perfbench/CMakeLists.txt, which compiles the library
from ../src) into $CARGO_TARGET_DIR/perfbench (default .bench_build), runs
one workload and prints its result as the last line of stdout:

    python3 perfbench/run.py --workload cold_fit --seed 1 --seconds 20 --trace 0

Workloads: cold_scan, cold_fit, iterative, serve_mixed (see README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
writes the span trace beside the result record under the build directory.

    python3 perfbench/run.py --check-optima

recomputes the pinned noise-free optima (reference/optima.tsv) with
exhaustive search and exits 1 if any differs (about two minutes).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("cold_scan", "cold_fit", "iterative", "serve_mixed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then build the harness (a no-op when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """Git commit when the tree is a repository, else a digest of the sources
    the benchmark builds (a checkout without .git still gets an identity)."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in (ROOT / "src", BENCH):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check-optima", action="store_true")
    args = parser.parse_args()
    if not args.check_optima and None in (args.workload, args.seed,
                                          args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"portatune sources not found under {ROOT}; nothing to measure")
        return 2
    bdir = build_dir()
    if not build(bdir):
        return 1
    binary = bdir / "perfbench"
    reference = BENCH / "reference" / "optima.tsv"
    if args.check_optima:
        return subprocess.run([str(binary), "--recompute-optima",
                               "--reference", str(reference)]).returncode

    out_dir = bdir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--out-dir", str(out_dir),
           "--reference", str(reference)]
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"harness exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        log("harness did not end with a result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
