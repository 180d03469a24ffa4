#!/usr/bin/env bash
# Mutation smoke: proves that the oracles catch the faults they exist to
# catch.  Each named mutant below is one perl patch to one source file
# plus the test binary (and gtest filter) expected to kill it.  The
# script extracts a `git archive` copy of REV into WORK/src, configures
# one RelWithDebInfo tree in WORK/build, checks that every owning test
# passes unmutated, then applies each mutant in turn: patch, incremental
# rebuild of the owning test, run, restore.  A mutant is killed when the
# owning test fails (or crashes).  The run fails on any survivor that is
# not on the survivors list below, on a patch that no longer applies,
# and on a mutant that no longer compiles.
#
# Usage: scripts/mutation_smoke.sh [work-dir] [rev] [mutant-name...]
#   work-dir  default build-mut (reused: rebuilds are incremental)
#   rev       default HEAD; `git stash create` names the working tree
#   names     run only these mutants (default: all)
# Header mutants (sched/packed_key.hpp, sched/ready_queue.hpp) recompile
# most of the library, twice (patch and restore): a full run over a warm
# work dir takes about five minutes on four cores.
set -eu
cd "$(dirname "$0")/.."
WORK="${1:-build-mut}"
REV="${2:-HEAD}"
shift $(( $# < 2 ? $# : 2 ))
ONLY=" $* "

# Mutants expected to survive, each with the reason it cannot be seen.
#   parse_reserve_uncapped: the reserve only sizes a vector; no test can
#   observe capacity beyond the bytes a blank-line file allocates.
SURVIVORS=" parse_reserve_uncapped "

JOBS=$(nproc)
[ "$JOBS" -gt 4 ] && JOBS=4

SRC="$WORK/src"
BUILD="$WORK/build"
mkdir -p "$SRC"
git archive "$REV" | tar -x -C "$SRC"
cmake -S "$SRC" -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

# The mutant table: a header line `mutant NAME FILE TEST FILTER` (FILTER
# `-` for the whole binary), then the perl program applied with -0pi.
MUTANTS=$(cat <<'EOF'
mutant cut_rule_off_by_one src/sched/packed_key.hpp ab_equivalence_test *ExplainStreams*
s/return static_cast<TieRule>\(f\);/return static_cast<TieRule>(f + 1);/
mutant cut_read_before_pops src/sched/simulator.cpp ab_equivalence_test *ExplainStreams*
s/\n  if constexpr \(kProbed\) \{\n    if \(probe_\.explaining\(\)\) explain_denials\(at, picks\);\n  \}//; s/\n  picks\.clear\(\);/\n  if constexpr (kProbed) {\n    if (probe_.explaining()) explain_denials(at, picks);\n  }\n  picks.clear();/
mutant sfq_preempt_without_prev_slot src/sched/simulator.cpp prof_test Quality.Sfq*
s/if \(h\.head == next\.seq && !h\.done\(\) &&/if (!h.done() \&\&/
mutant dvq_preempt_without_handoff src/dvq/dvq_simulator.cpp prof_test Quality.Dvq*
s/if \(pr\.busy_until == t && pr\.hand_off >= 0\)/if (pr.hand_off >= 0)/
mutant heap_task_mask_short src/sched/packed_key.hpp slot_buckets_test ReadyQueue.*
s/\(\(std::uint64_t\{1\} << tie_bits_\) - 1\)\);/(((std::uint64_t{1} << tie_bits_) - 1) >> 1));/
mutant heap_task_of_wrong_field src/sched/packed_key.hpp slot_buckets_test ReadyQueue.*
s/static_cast<std::int32_t>\(key &/static_cast<std::int32_t>((key >> tie_bits_) &/
mutant heap_sift_up_parent src/sched/ready_queue.hpp slot_buckets_test ReadyQueue.*
s/const std::size_t parent = i \/ 8 \+ 6;/const std::size_t parent = i \/ 8 + 5;/
mutant heap_peek_fallback_back src/sched/ready_queue.hpp slot_buckets_test ReadyQueue.*
s/fb_\.front\(\)\.task/fb_.back().task/
mutant parse_vf_blank src/io/parse.cpp parse_test -
s/find_first_not_of\(" \\t\\r"\)/find_first_not_of(" \\t\\r\\v\\f")/
mutant parse_plus_refused src/io/parse.cpp parse_test -
s/if \(digits\.size\(\) > 1 && digits\[0\] == '\+'/if (false && digits.size() > 1 && digits[0] == '+'/
mutant parse_blank_line_keeps_lineno src/io/parse.cpp parse_test -
s/    \+\+lineno;\n//; s/(npos\) continue;\n)/$1    ++lineno;\n/
mutant parse_reserve_uncapped src/io/parse.cpp parse_test -
s/out\.tasks\.reserve\(std::min\(lines \+ 1, text\.size\(\) \/ 10 \+ 1\)\);/out.tasks.reserve(lines + 1);/
EOF
)

selected() { [ "$ONLY" = "  " ] || case "$ONLY" in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

run_test() {  # test filter log
  if [ "$2" = "-" ]; then
    timeout 900 "$BUILD/tests/$1" --gtest_brief=1 >"$3" 2>&1
  else
    timeout 900 "$BUILD/tests/$1" --gtest_brief=1 "--gtest_filter=$2" \
      >"$3" 2>&1
  fi
}

# Baseline: every owning test passes on the unmutated copy, so a failure
# under a mutant is the mutant's doing.
echo "$MUTANTS" | while read -r kw name file test filter; do
  read -r _expr
  selected "$name" || continue
  cmake --build "$BUILD" -j"$JOBS" --target "$test" >"$WORK/build.log" 2>&1 ||
    { echo "mutation_smoke: baseline build of $test failed"; exit 1; }
  run_test "$test" "$filter" "$WORK/baseline.log" ||
    { echo "mutation_smoke: baseline $test $filter fails unmutated"; exit 1; }
done

results=$(echo "$MUTANTS" | while read -r kw name file test filter; do
  read -r expr
  selected "$name" || continue
  cp "$SRC/$file" "$WORK/orig"
  perl -0pi -e "$expr" "$SRC/$file"
  if cmp -s "$SRC/$file" "$WORK/orig"; then
    echo "$name not-applied"
    continue
  fi
  if ! cmake --build "$BUILD" -j"$JOBS" --target "$test" \
      >"$WORK/$name.build.log" 2>&1; then
    verdict=no-compile
  elif run_test "$test" "$filter" "$WORK/$name.log"; then
    verdict=survived
  else
    verdict=killed
  fi
  cp "$WORK/orig" "$SRC/$file"  # a fresh mtime: the next build restores
  echo "$name $verdict"
done)

echo "$results" | while read -r name verdict; do
  [ -n "$name" ] || continue
  listed=no
  case "$SURVIVORS" in *" $name "*) listed=yes ;; esac
  case "$verdict:$listed" in
    killed:no) echo "mutation_smoke: $name killed" ;;
    killed:yes) echo "mutation_smoke: $name killed (listed as a survivor;" \
                     "drop it from SURVIVORS)" ;;
    survived:yes) echo "mutation_smoke: $name survived (listed)" ;;
    *) echo "mutation_smoke: FAIL $name $verdict" ;;
  esac
done | tee "$WORK/summary.log"
if grep -q FAIL "$WORK/summary.log"; then
  echo "mutation smoke failed"
  exit 1
fi
echo "mutation smoke complete — every mutant killed or listed"
