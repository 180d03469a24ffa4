#!/usr/bin/env sh
# Machine-readable bench smoke: Release build, a few representative
# benches with --json, and a schema check on every report produced.
# Usage: scripts/bench_smoke.sh [build-dir]   (default build-rel)
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build-rel}"

cmake -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target \
  bench_fig2_models bench_table1_pdb bench_micro_sched bench_scaling \
  bench_throughput pfairsim >/dev/null

OUT="$BUILD/bench-reports"
mkdir -p "$OUT"
"$BUILD/bench/bench_fig2_models" --json="$OUT/BENCH_fig2_models.json" \
  >/dev/null
"$BUILD/bench/bench_table1_pdb" --json="$OUT/BENCH_table1_pdb.json" \
  >/dev/null
# Sustained-throughput bench: exercises the arena-backed steady-state
# path and its own shape checks (bit-identical schedules, zero arena
# growth after warmup, a conservative decisions/sec floor).
"$BUILD/bench/bench_throughput" --json="$OUT/BENCH_throughput.json" \
  >/dev/null
# Keep the google-benchmark run fast: one cheap case is enough to prove
# the report path.
"$BUILD/bench/bench_micro_sched" --json="$OUT/BENCH_micro_sched.json" \
  --benchmark_filter=BM_WindowMath >/dev/null 2>&1
# One profiled run: fills the report's "profile" section, writes a
# Prometheus dump, and arms the bench's own < 1.05x span-overhead shape
# check (the whole bench exits nonzero if profiling costs too much).
"$BUILD/bench/bench_scaling" --profile \
  --json="$OUT/BENCH_scaling_profiled.json" \
  --prom="$OUT/BENCH_scaling_profiled.prom" >/dev/null
# A profiled simulator run for the artifact bundle: chrome trace (with
# the profiler span track) plus Prometheus / JSON metrics expositions.
"$BUILD/tools/pfairsim" --demo=fig6 --profile --quiet \
  --chrome-trace="$OUT/fig6_chrome_trace.json" \
  --metrics="$OUT/fig6_metrics.json" \
  --prom="$OUT/fig6_metrics.prom" >/dev/null

if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT"/BENCH_*.json <<'EOF'
import json, sys

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    for key in ("schema", "bench", "git", "box", "ok", "exit_code", "repetitions",
                "wall_ms", "values", "cases", "profile", "metrics"):
        assert key in doc, f"{path}: missing {key!r}"
    assert doc["schema"] == "pfair-bench-v1", f"{path}: bad schema"
    for key in ("min", "median", "max", "all"):
        assert key in doc["wall_ms"], f"{path}: wall_ms missing {key!r}"
    assert doc["ok"] is True, f"{path}: bench reported failure"
    if path.endswith("_profiled.json"):
        assert doc["profile"], f"{path}: profiled run has empty profile"
        assert doc["profile"]["phases"], f"{path}: no phases recorded"
    else:
        assert doc["profile"] is None, f"{path}: unprofiled run has profile"
    print(f"{path}: OK ({doc['bench']} @ {doc['git']})")
EOF
else
  echo "bench_smoke: python3 not found, skipping schema validation" >&2
fi

# Opt-in perf regression guard: compares the scheduler hot-path medians
# against the committed baseline (BENCH_PR13.json); >15% fails.  Off by
# default because wall-clock numbers are machine-specific.
if [ "${PERF_GUARD:-0}" = "1" ]; then
  python3 scripts/perf_guard.py --build-dir "$BUILD"
fi
echo "bench smoke complete — reports in $OUT"
