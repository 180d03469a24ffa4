#!/usr/bin/env sh
# Sanitizer smoke: builds the tree with -fsanitize=address,undefined
# (PFAIR_SANITIZE) and runs the tasks/sched test subset — the suites that
# exercise the flyweight window tables, the shared WindowTableCache (its
# multi-threaded hammer test included), and the simulator hot paths over
# them — plus the post-simulation layers (validity, recount, CSV export)
# in analysis_test, prof_test and io_test, whose edge-case tests drive
# the sparse slot fallback and the radix sorts.  Any ASan/UBSan report
# aborts the run (-fno-sanitize-recover=all).
# Usage: scripts/san_smoke.sh [build-dir]   (default build-san)
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build-san}"

cmake -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPFAIR_SANITIZE=address,undefined >/dev/null
cmake --build "$BUILD" -j --target \
  tasks_test window_table_test priority_test packed_key_test \
  sfq_test simulator_test ab_equivalence_test analysis_test prof_test \
  io_test >/dev/null

for t in tasks_test window_table_test priority_test packed_key_test \
         sfq_test simulator_test ab_equivalence_test analysis_test prof_test \
         io_test; do
  echo "san_smoke: $t"
  "$BUILD/tests/$t" --gtest_brief=1
done
echo "san smoke complete — no sanitizer reports"
