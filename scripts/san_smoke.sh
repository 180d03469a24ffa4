#!/usr/bin/env sh
# Sanitizer smoke: builds the tree with -fsanitize=address,undefined
# (PFAIR_SANITIZE) and runs the tasks/sched test subset — the suites that
# exercise the flyweight window tables, the shared WindowTableCache (its
# multi-threaded hammer test included), and the simulator hot paths over
# them — plus the post-simulation layers (validity, recount, CSV export)
# in analysis_test, prof_test and io_test, whose edge-case tests drive
# the sparse slot fallback and the radix sorts, and cycle_test, whose
# compressed schedules drive the per-task placement walks over skipped
# cycles.  dvq_simulator_test and dvq_test cover the DVQ event loop and
# schedule_dvq, which runs through the shared fast-forward driver
# (sched/fast_forward.hpp) like every schedule_sfq call; staggered_test
# covers schedule_staggered, the DVQ event loop on a per-processor
# boundary grid, against its boundary-walk oracle; parse_test covers the
# task-file parser, whose finite tasks are flyweights and whose window
# tables are size-checked; slot_buckets_test drives the bucket queue
# behind both calendars, whose base-relative indexing and chunk
# freelist are what ASan should see, and the ready queue under random
# pushes, pops and clears; bounded_memory_test schedules task files
# whose pseudo-deadlines reach 2^40 under both models within an
# allocation budget; storage_test and cycle_test's CycleStorage cases
# drive every relayout of the schedule store (growth ahead of
# the simulated slots, the warp's gap, a reused stored() copy, the full
# shape for materialize()), whose index arithmetic ASan should see.
# Any ASan/UBSan report aborts the run
# (-fno-sanitize-recover=all).
# Usage: scripts/san_smoke.sh [build-dir]   (default build-san)
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build-san}"

cmake -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPFAIR_SANITIZE=address,undefined >/dev/null
cmake --build "$BUILD" -j --target \
  tasks_test window_table_test priority_test packed_key_test \
  sfq_test simulator_test ab_equivalence_test analysis_test prof_test \
  io_test cycle_test dvq_simulator_test dvq_test staggered_test \
  parse_test slot_buckets_test bounded_memory_test storage_test >/dev/null

for t in tasks_test window_table_test priority_test packed_key_test \
         sfq_test simulator_test ab_equivalence_test analysis_test prof_test \
         io_test cycle_test dvq_simulator_test dvq_test staggered_test \
         parse_test slot_buckets_test bounded_memory_test storage_test; do
  echo "san_smoke: $t"
  "$BUILD/tests/$t" --gtest_brief=1
done
echo "san smoke complete — no sanitizer reports"
