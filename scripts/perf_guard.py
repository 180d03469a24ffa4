#!/usr/bin/env python3
"""Paired performance gate for the scheduler hot paths.

Builds a parent revision (default HEAD, the parent of the change in the
working tree) from `git archive` into a Release tree, then runs the
parent's benches and the working tree's benches in PAIRS interleaved
pairs, alternating which side runs first.  A guarded case fails only
when the change is consistently slower: slower in at least
MIN_SLOWER_PAIRS of the pairs, with a median per-pair ratio above
1 + TOLERANCE.

Usage:
  scripts/perf_guard.py [--build-dir build-rel] [--against REV]

The parent's tree is cached under <build-dir>/perf_guard/<sha>/, so a
repeat run against the same revision does not rebuild it.

Benches marked unpaired in BENCHES hold no guarded case and run once,
on the change side only, for their shape checks.  A bench's own shape
check ("ok": false in its report) fails the gate when it fails in any
change run.  A parent run that lost a guarded case is an error of the
parent or the box, reported apart from the change's failures (exit 2).

Only cases matching GUARDED_PATTERNS are compared: the optimized
schedulers' costs.  The naive reference timings (sfq_ref/*, dvq_ref/*)
ride along in the reports but are deliberately unguarded — the oracle is
allowed to be slow.

The parent is a revision rather than a committed file of timings
because the box drifts by tens of percent from hour to hour: two builds
timed alternately on one box compare the code, while an absolute number
from another hour compares the box.
"""

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOLERANCE = 0.15
PAIRS = 5
MIN_SLOWER_PAIRS = 4

# (bench target, report name, extra argv, extra env, paired)
BENCHES = [
    # --profile records the per-phase self-time breakdown in the
    # report's "profile" section (and reports the span overhead as
    # prof.*_overhead); on a regression the gate names the phase that
    # moved most.
    ("bench_scaling", "scaling", ["--profile"], {}, True),
    # One DVQ experiment, wall-clock only.
    ("bench_epdf_dvq", "epdf_dvq", ["--repeat=5"], {}, False),
    # Sustained throughput over the arena-backed steady-state path; its
    # own shape check enforces bit-identicality and zero steady-state
    # arena growth.
    ("bench_throughput", "throughput", [], {}, True),
    # The S1-large tier's own shape check enforces the >= 100x
    # fast-forward speedup; it has no guarded ns/op cases (single-shot
    # wall clock).
    ("bench_soak", "soak", [], {"PFAIR_SOAK_LARGE": "1"}, False),
]

GUARDED_PATTERNS = [
    r"^sfq_fast/",
    # SIMD+arena and forced-scalar legs of the P1 sweep: the optimized
    # path must not regress in either backend.
    r"^sfq_arena/",
    r"^sfq_scalar/",
    r"^dvq_fast/",
    # Steady-state decisions/sec (bench_throughput); ns/op is per
    # schedule call so large-n cases clear MIN_GUARDED_NS.
    r"^throughput/",
    # Flyweight task-system construction (bench_scaling); the eager
    # oracle rides along as construction_eager/* unguarded.
    r"^construction/",
    # Steady-state cycle fast-forward (bench_scaling); the full-horizon
    # simulations it is compared against are unguarded references.
    r"^cycle/",
    # Post-simulation layers (bench_scaling): validity, tardiness,
    # recount and CSV export, one call over a whole schedule.
    r"^post/",
    # Experiment X4's DVQ sweep (bench_scaling): one call on each fully
    # loaded generated system (M = 4, 8, 16), timed as one case so that
    # it clears MIN_GUARDED_NS.
    r"^x4_dvq/",
]

# Cases whose parent median sits below this ride along in the
# reports but are not guarded: on a busy box, scheduling jitter alone
# moves sub-100us single-shot timings past any sane tolerance.
MIN_GUARDED_NS = 80_000


def decide(parent_ns, change_ns):
    """The gate's verdict on one guarded case from its ns/op in each
    pair, both lists in pair order, None where a run lacks the case.
    Returns (status, per-pair change/parent ratios); status is "ok",
    "slower" (consistently, past the tolerance), "missing" (absent from
    a change run) or "unguarded" (parent median under MIN_GUARDED_NS).
    Pairs whose parent run lacks the case are left out."""
    pairs = [(p, c) for p, c in zip(parent_ns, change_ns) if p is not None]
    if statistics.median(p for p, _ in pairs) < MIN_GUARDED_NS:
        return "unguarded", []
    if any(c is None for _, c in pairs):
        return "missing", []
    ratios = [c / p for p, c in pairs]
    slower = sum(r > 1.0 for r in ratios) >= MIN_SLOWER_PAIRS
    if slower and statistics.median(ratios) > 1.0 + TOLERANCE:
        return "slower", ratios
    return "ok", ratios


def medians(items):
    """key -> median of the values listed under it in (key, value) items."""
    groups = {}
    for key, value in items:
        groups.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in groups.items()}


def case_medians(report):
    """name -> median ns/op over same-name case entries (repetitions)."""
    cases = report.get("cases", [])
    return medians((c["name"], c["ns_per_op"]) for c in cases)


def guarded(name):
    return any(re.search(p, name) for p in GUARDED_PATTERNS)


def median_phases(reports):
    """phase -> median self_ns over the reports' profile sections; empty
    for a bench run without --profile."""
    profiles = (report.get("profile") or {} for report in reports)
    return medians(
        (name, entry.get("self_ns", 0.0))
        for profile in profiles
        for name, entry in (profile.get("phases") or {}).items()
    )


def attribute_regression(bench_name, parent_reports, change_reports):
    """On a regression, say which profile phase's median self time grew
    most from the parent to the change."""
    parent = median_phases(parent_reports)
    change = median_phases(change_reports)
    if not change:
        return
    delta_ns, name = max(
        (change.get(n, 0.0) - parent.get(n, 0.0), n)
        for n in parent.keys() | change.keys()
    )
    if delta_ns <= 0:
        print(
            f"  {bench_name}: no profile phase slowed down — the "
            "regression sits outside instrumented spans"
        )
        return
    base_ns = parent.get(name, 0.0)
    rel = f"{delta_ns / base_ns * 100.0:+.1f}%" if base_ns > 0 else "new"
    print(
        f"  {bench_name}: phase '{name}' moved most: "
        f"{base_ns / 1e6:.3f} -> {(base_ns + delta_ns) / 1e6:.3f} ms "
        f"self time ({rel})"
    )


def compare(parent, change):
    """Applies decide() to every guarded case.  `parent` and `change` map
    a report name to its reports in pair order (a change-only bench has
    no parent entry).  Prints one line per compared case and returns
    (failures, parent_errors): the change's faults, and cases a parent
    run lost, which say nothing about the change."""
    failures, parent_errors = [], []
    compared = 0
    worst = None  # (median ratio, "bench/name")
    for bench_name, change_reports in change.items():
        failed = sum(not r.get("ok", False) for r in change_reports)
        if failed:
            failures.append(
                f"{bench_name}: shape check failed in {failed}/"
                f"{len(change_reports)} change runs"
            )
        if bench_name not in parent:
            continue
        failed = sum(not r.get("ok", False) for r in parent[bench_name])
        if failed:
            print(f"  note: {bench_name}: the parent's own shape check "
                  f"failed in {failed}/{len(parent[bench_name])} runs")
        parent_cases = [case_medians(r) for r in parent[bench_name]]
        change_cases = [case_medians(r) for r in change_reports]
        bench_regressed = False
        for name in sorted(set().union(*parent_cases)):
            if not guarded(name):
                continue
            case = f"{bench_name}/{name}"
            parent_ns = [c.get(name) for c in parent_cases]
            lost = [i + 1 for i, ns in enumerate(parent_ns) if ns is None]
            if lost:
                parent_errors.append(
                    f"{case}: missing from parent run(s) {lost}"
                )
            status, ratios = decide(
                parent_ns, [c.get(name) for c in change_cases]
            )
            if status == "unguarded":
                continue
            if status == "missing":
                failures.append(f"{case}: case missing from a change run")
                continue
            compared += 1
            median = statistics.median(ratios)
            parent_median = statistics.median(
                ns for ns in parent_ns if ns is not None
            )
            summary = (
                f"median ratio {median:.3f} "
                f"[{min(ratios):.3f}-{max(ratios):.3f}], slower in "
                f"{sum(r > 1.0 for r in ratios)}/{len(ratios)} pairs"
            )
            print(
                f"  {'FAIL' if status == 'slower' else 'ok':4} {case}: "
                f"{parent_median:12.0f} ns/op parent, {summary}"
            )
            if worst is None or median > worst[0]:
                worst = (median, case)
            if status == "slower":
                bench_regressed = True
                failures.append(
                    f"{case}: {summary} (tolerance {TOLERANCE * 100:.0f}%)"
                )
        if bench_regressed:
            attribute_regression(bench_name, parent[bench_name], change_reports)
    if compared == 0:
        failures.append("no guarded cases compared")
    else:
        print(
            f"perf_guard: {compared} guarded cases compared; worst median "
            f"ratio {worst[0]:.3f} ({worst[1]})"
        )
    return failures, parent_errors


def parent_tree(rev, build_dir):
    """(sha, source dir, build dir) of REV, its `git archive` extracted
    once per sha under <build_dir>/perf_guard/."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.strip()
    root = os.path.join(build_dir, "perf_guard", sha)
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        partial = src + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        archive = subprocess.run(
            ["git", "archive", sha], cwd=REPO, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(partial, filter="data")
        os.rename(partial, src)
    return sha, src, os.path.join(root, "build")


def build(source_dir, build_dir):
    subprocess.run(
        ["cmake", "-S", source_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    subprocess.run(
        ["cmake", "--build", build_dir, f"-j{os.cpu_count() or 1}",
         "--target"] + [b[0] for b in BENCHES],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def run_bench(bench, source_dir, build_dir, path):
    """Runs one bench and returns its report; a run that wrote none
    (a crash) reads as a failed report with no cases."""
    target, _, extra, env, _ = bench
    subprocess.run(
        [os.path.join(build_dir, "bench", target), f"--json={path}"] + extra,
        cwd=source_dir,
        env={**os.environ, **env},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if not os.path.exists(path):
        return {"ok": False, "cases": []}
    with open(path) as f:
        return json.load(f)


def run_pairs(parent_dirs, change_dirs, out_dir):
    """Runs the paired benches PAIRS times on both sides, alternating
    which side goes first, then the change-only benches once."""
    runs = {"parent": {}, "change": {}}
    sides = [("parent", *parent_dirs), ("change", *change_dirs)]
    for i in range(PAIRS):
        order = sides if i % 2 == 0 else sides[::-1]
        print(
            f"perf_guard: pair {i + 1}/{PAIRS} ({order[0][0]} first) ...",
            file=sys.stderr,
        )
        for bench in (b for b in BENCHES if b[4]):
            for side, src, bld in order:
                path = os.path.join(out_dir, f"{side}_{bench[1]}_{i}.json")
                report = run_bench(bench, src, bld, path)
                runs[side].setdefault(bench[1], []).append(report)
    for bench in (b for b in BENCHES if not b[4]):
        path = os.path.join(out_dir, f"change_{bench[1]}.json")
        runs["change"][bench[1]] = [run_bench(bench, *change_dirs, path)]
    return runs["parent"], runs["change"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--build-dir",
        default="build-rel",
        help="Release tree for the working tree; the parent's tree is "
        "cached inside it (default build-rel)",
    )
    ap.add_argument(
        "--against",
        default="HEAD",
        help="the parent revision to compare against (default HEAD)",
    )
    args = ap.parse_args()

    build_dir = os.path.join(REPO, args.build_dir)
    sha, parent_src, parent_build = parent_tree(args.against, build_dir)
    print(f"perf_guard: building {args.against} ({sha[:12]}) and the "
          "working tree ...", file=sys.stderr)
    build(parent_src, parent_build)
    build(REPO, build_dir)
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = run_pairs(
            (parent_src, parent_build), (REPO, build_dir), tmp
        )
    box = next(iter(change.values()))[0].get("box")
    print(
        f"perf_guard: working tree vs {args.against} ({sha[:12]}), "
        f"{PAIRS} interleaved pairs on box {json.dumps(box)}"
    )
    failures, parent_errors = compare(parent, change)
    if failures:
        print("perf_guard: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    if parent_errors:
        print(f"perf_guard: ERROR in the parent's runs ({args.against}), "
              "not the change")
        for e in parent_errors:
            print(f"  {e}")
        return 2
    print("perf_guard: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
