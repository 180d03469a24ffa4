#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program (perfbench/pfairbench.cpp) and
the library under ../src are compiled with CMake into
$CARGO_TARGET_DIR/pfairbench (default .bench_build/pfairbench); later runs
only re-check the build.  The program's output is passed through, so the
last stdout line is the result object.  A copy of the result, stamped with
the box fingerprint, lands in <build>/results/ for perfbench/compare.py.
Exits nonzero, printing no result, when the sources or a build tool are
missing.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "pfairbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/CMakeLists.txt) not found")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "pfairbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step failed: {' '.join(cmd)}: {e}")
    return bdir / "pfairbench"


def describe():
    """`git describe` when the checkout is its own git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "none (not a git checkout)"
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty", "--tags"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--describe", describe()]
    if args.trace:
        cmd += ["--spans", str(results / f"spans-{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"benchmark program failed: {e}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark program exited with {proc.returncode}")
    box = next((json.loads(l[len("box: "):]) for l in lines
                if l.startswith("box: ")), None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "box": box,
              "result": json.loads(lines[-1])}
    (results / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
