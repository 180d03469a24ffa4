#!/usr/bin/env sh
# Machine-readable bench smoke: Release build, a few representative
# benches with --json, and a schema check on every report produced.
# Usage: scripts/bench_smoke.sh [build-dir]   (default build-rel)
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build-rel}"

cmake -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target \
  bench_fig2_models bench_table1_pdb bench_scaling \
  bench_throughput bench_switching bench_staggered pfairsim >/dev/null

OUT="$BUILD/bench-reports"
mkdir -p "$OUT"
"$BUILD/bench/bench_fig2_models" --json="$OUT/BENCH_fig2_models.json" \
  >/dev/null
"$BUILD/bench/bench_table1_pdb" --json="$OUT/BENCH_table1_pdb.json" \
  >/dev/null
# X9 and X5 shape checks (a few ms each): every schedule complete, early
# release adds no context switches or migrations, and staggered
# decisions never coincide.
"$BUILD/bench/bench_switching" --json="$OUT/BENCH_switching.json" \
  >/dev/null
"$BUILD/bench/bench_staggered" --json="$OUT/BENCH_staggered.json" \
  >/dev/null
# Sustained-throughput bench: exercises the arena-backed steady-state
# path and its own shape checks (bit-identical schedules, zero arena
# growth after warmup, a conservative decisions/sec floor).
"$BUILD/bench/bench_throughput" --json="$OUT/BENCH_throughput.json" \
  >/dev/null
# One profiled run: fills the report's "profile" section, writes a
# Prometheus dump, and reports the span overhead (prof.*_overhead,
# target < 1.05x; a value, not part of the bench's shape check).
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

# Opt-in perf gate: the working tree against HEAD in interleaved pairs;
# a guarded hot-path case consistently >15% slower fails.  Off by
# default because it also builds HEAD and runs ~8 minutes.
if [ "${PERF_GUARD:-0}" = "1" ]; then
  python3 scripts/perf_guard.py --build-dir "$BUILD"
fi
echo "bench smoke complete — reports in $OUT"
