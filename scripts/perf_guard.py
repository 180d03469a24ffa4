#!/usr/bin/env python3
"""Performance regression guard for the scheduler hot paths.

Compares fresh pfair-bench-v1 reports against the committed baseline
bundle (BENCH_PR13.json at the repo root) and fails if any guarded case
regresses by more than the tolerance on its median ns/op.

Usage:
  scripts/perf_guard.py --build-dir build-rel            # check
  scripts/perf_guard.py --build-dir build-rel --write-baseline
  scripts/perf_guard.py --reports DIR                    # check pre-made
                                                         # reports

The guard runs (or reads) four reports:
  micro_sched  google-benchmark micro costs (BM_SfqSchedule,
               BM_DvqSchedule, ... with repetitions for medians)
  scaling      fast-vs-naive sweep over task counts plus the cycle
               fast-forward cases (bench_scaling)
  epdf_dvq     one DVQ experiment, wall-clock only (rides along in the
               bundle for reference; not guarded)
  throughput   sustained decisions/sec with arena-backed repeated
               scheduling (bench_throughput); guarded per-call costs
  soak         scale soak with the S1-large tier (PFAIR_SOAK_LARGE=1):
               its own shape check enforces the >= 100x fast-forward
               speedup and the bundle records it in large.ff_speedup

Only cases matching GUARDED_PATTERNS are compared: the optimized
schedulers' costs.  The naive reference timings (sfq_ref/*, dvq_ref/*)
ride along in the reports but are deliberately unguarded — the oracle is
allowed to be slow.

Baselines are machine-specific.  Every report carries the fingerprint
of the box it ran on ("box": cores, SIMD backend, compiler, build type);
--write-baseline copies it into the bundle, and a check whose fresh
reports come from a different box prints both fingerprints and skips
the comparison.  Regenerate the baseline with --write-baseline on the
box that will check against it.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO, "BENCH_PR13.json")
TOLERANCE = 0.15

# (bench target, report name, extra argv, extra env)
BENCHES = [
    (
        "bench_micro_sched",
        "micro_sched",
        [
            "--benchmark_filter="
            "BM_SfqSchedule|BM_DvqSchedule",
            "--benchmark_repetitions=3",
        ],
        {},
    ),
    # --profile records the per-phase self-time breakdown in the
    # report's "profile" section (and arms the bench's own < 1.05x
    # span-overhead shape check); on a regression the guard names the
    # phase that moved most.
    ("bench_scaling", "scaling", ["--profile"], {}),
    ("bench_epdf_dvq", "epdf_dvq", ["--repeat=5"], {}),
    # Sustained throughput over the arena-backed steady-state path; its
    # own shape check enforces bit-identicality and zero steady-state
    # arena growth.
    ("bench_throughput", "throughput", [], {}),
    # The S1-large tier's own shape check enforces the >= 100x
    # fast-forward speedup and records it in the bundle's values; it has
    # no guarded ns/op cases (single-shot wall clock).
    ("bench_soak", "soak", [], {"PFAIR_SOAK_LARGE": "1"}),
]

GUARDED_PATTERNS = [
    r"^BM_SfqSchedule/",
    r"^BM_DvqSchedule/",
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
]

# Cases whose baseline median sits below this ride along in the reports
# but are not guarded: on a busy box, scheduling jitter alone moves
# sub-100us single-shot timings past any sane tolerance.
MIN_GUARDED_NS = 80_000


def run_benches(build_dir, out_dir):
    targets = [b[0] for b in BENCHES]
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "--target"] + targets,
        check=True,
        cwd=REPO,
        stdout=subprocess.DEVNULL,
    )
    reports = {}
    for target, name, extra, env in BENCHES:
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        exe = os.path.join(build_dir, "bench", target)
        print(f"perf_guard: running {target} ...", file=sys.stderr)
        subprocess.run(
            [exe, f"--json={path}"] + extra,
            check=True,
            cwd=REPO,
            env={**os.environ, **env},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        with open(path) as f:
            reports[name] = json.load(f)
    return reports


def load_reports(reports_dir):
    reports = {}
    for _, name, _, _ in BENCHES:
        path = os.path.join(reports_dir, f"BENCH_{name}.json")
        if not os.path.exists(path):
            sys.exit(f"perf_guard: missing report {path}")
        with open(path) as f:
            reports[name] = json.load(f)
    return reports


def case_medians(report):
    """name -> median ns/op over same-name case entries (repetitions)."""
    runs = {}
    for case in report.get("cases", []):
        runs.setdefault(case["name"], []).append(case["ns_per_op"])
    return {name: statistics.median(v) for name, v in runs.items()}


def guarded(name):
    return any(re.search(p, name) for p in GUARDED_PATTERNS)


def report_box(reports):
    """The box fingerprint shared by a set of reports (None if absent);
    exits if the reports disagree — they must come from one run."""
    boxes = {json.dumps(r.get("box"), sort_keys=True) for r in reports.values()}
    if len(boxes) != 1:
        sys.exit(f"perf_guard: reports disagree on the box: {sorted(boxes)}")
    return json.loads(boxes.pop())


def describe_box(box):
    if not isinstance(box, dict):
        return "unknown box (no fingerprint)"
    return (
        f"{box.get('cores', '?')} cores, {box.get('simd', '?')}, "
        f"{box.get('compiler', '?')}, {box.get('build_type', '?')}"
    )


def profile_phases(report):
    """phase -> self_ns from a report's profile section, or None when
    the report predates profiling (missing key, null, or no phases)."""
    profile = report.get("profile")
    if not isinstance(profile, dict):
        return None
    phases = profile.get("phases")
    if not isinstance(phases, dict) or not phases:
        return None
    return {name: entry.get("self_ns", 0.0) for name, entry in phases.items()}


def attribute_regression(bench_name, base_report, fresh_report):
    """On a regression, say which profile phase moved most (per-phase
    self time, baseline vs fresh).  Quietly degrades when either side
    has no profile section — pre-PR6 baselines lack one."""
    base_phases = profile_phases(base_report)
    fresh_phases = profile_phases(fresh_report)
    if base_phases is None or fresh_phases is None:
        which = "baseline" if base_phases is None else "fresh report"
        print(
            f"  {bench_name}: no profile section in the {which}; "
            "cannot attribute the regression to a phase"
        )
        return
    movers = sorted(
        (
            (fresh_phases.get(name, 0.0) - base_ns, name, base_ns)
            for name, base_ns in base_phases.items()
        ),
        reverse=True,
    )
    movers += [
        (ns, name, 0.0)
        for name, ns in fresh_phases.items()
        if name not in base_phases
    ]
    movers.sort(reverse=True)
    delta_ns, name, base_ns = movers[0]
    if delta_ns <= 0:
        print(
            f"  {bench_name}: no profile phase slowed down — the "
            "regression sits outside instrumented spans"
        )
        return
    rel = f"{delta_ns / base_ns * 100.0:+.1f}%" if base_ns > 0 else "new"
    print(
        f"  {bench_name}: phase '{name}' moved most: "
        f"{base_ns / 1e6:.3f} -> {(base_ns + delta_ns) / 1e6:.3f} ms "
        f"self time ({rel})"
    )


def check(baseline, fresh, tolerance):
    failures = []
    compared = 0
    worst = None  # (ratio, "bench/name")
    for bench_name, base_report in baseline["reports"].items():
        fresh_report = fresh.get(bench_name)
        if fresh_report is None:
            failures.append(f"{bench_name}: no fresh report")
            continue
        if not fresh_report.get("ok", False):
            failures.append(f"{bench_name}: fresh run reported failure")
        base_cases = case_medians(base_report)
        fresh_cases = case_medians(fresh_report)
        bench_regressed = False
        for name, base_ns in sorted(base_cases.items()):
            if not guarded(name) or base_ns < MIN_GUARDED_NS:
                continue
            if name not in fresh_cases:
                failures.append(f"{bench_name}/{name}: case disappeared")
                continue
            fresh_ns = fresh_cases[name]
            ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
            compared += 1
            marker = "FAIL" if ratio > 1.0 + tolerance else "ok"
            print(
                f"  {marker:4} {bench_name}/{name}: "
                f"{base_ns:12.0f} -> {fresh_ns:12.0f} ns/op "
                f"({(ratio - 1.0) * 100:+.1f}%)"
            )
            if worst is None or ratio > worst[0]:
                worst = (ratio, f"{bench_name}/{name}")
            if ratio > 1.0 + tolerance:
                bench_regressed = True
                failures.append(
                    f"{bench_name}/{name}: {base_ns:.0f} -> {fresh_ns:.0f} "
                    f"ns/op, {(ratio - 1.0) * 100:+.1f}% "
                    f"(tolerance {tolerance * 100:.0f}%)"
                )
        if bench_regressed:
            attribute_regression(bench_name, base_report, fresh_report)
    # Guarded cases the baseline has never seen (a bench or a case added
    # since it was written) cannot be compared; list them so they are not
    # mistaken for checked ones.
    for bench_name, fresh_report in sorted(fresh.items()):
        base_report = baseline["reports"].get(bench_name)
        base_cases = case_medians(base_report) if base_report else {}
        for name, fresh_ns in sorted(case_medians(fresh_report).items()):
            if guarded(name) and name not in base_cases:
                print(
                    f"  new  {bench_name}/{name}: {fresh_ns:12.0f} ns/op "
                    f"(unguarded until --write-baseline)"
                )
    if compared == 0:
        failures.append("no guarded cases compared — baseline empty?")
    elif worst is not None:
        print(
            f"perf_guard: {compared} guarded cases compared; worst delta "
            f"{(worst[0] - 1.0) * 100:+.1f}% ({worst[1]})"
        )
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build-rel")
    ap.add_argument("--baseline", default=BASELINE)
    ap.add_argument(
        "--reports",
        default=None,
        help="directory of pre-made BENCH_*.json (skips running benches)",
    )
    ap.add_argument("--tolerance", type=float, default=TOLERANCE)
    ap.add_argument(
        "--write-baseline",
        action="store_true",
        help="run the benches and (re)write the baseline bundle",
    )
    args = ap.parse_args()

    if args.reports:
        fresh = load_reports(args.reports)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            fresh = run_benches(args.build_dir, tmp)

    if args.write_baseline:
        bundle = {
            "schema": "pfair-perf-baseline-v1",
            "tolerance": args.tolerance,
            "box": report_box(fresh),
            "reports": fresh,
        }
        with open(args.baseline, "w") as f:
            json.dump(bundle, f, indent=1)
            f.write("\n")
        print(f"perf_guard: baseline written to {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        sys.exit(
            f"perf_guard: no baseline at {args.baseline} "
            "(generate with --write-baseline)"
        )
    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema") != "pfair-perf-baseline-v1":
        sys.exit("perf_guard: unrecognized baseline schema")

    base_box = baseline.get("box")
    fresh_box = report_box(fresh)
    if base_box != fresh_box:
        print(
            "perf_guard: WARNING: baseline and fresh reports come from "
            "different boxes\n"
            f"  baseline: {describe_box(base_box)}\n"
            f"  fresh:    {describe_box(fresh_box)}"
        )
        print(
            "perf_guard: not compared (timings from different boxes "
            "say nothing about the code); regenerate the baseline "
            "here with --write-baseline"
        )
        return 0

    print(f"perf_guard: comparing against {args.baseline}")
    failures = check(baseline, fresh, args.tolerance)
    if failures:
        print("perf_guard: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("perf_guard: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
