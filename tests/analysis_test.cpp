// Tests for validity checking, tardiness accounting and lag analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lag.hpp"
#include "analysis/recount.hpp"
#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "core/radix_sort.hpp"
#include "core/rng.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

TaskSystem one_task(Weight w, std::int64_t horizon, int m = 1) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("T", w, horizon));
  return TaskSystem(std::move(tasks), m);
}

// ----------------------------------------------------------- slot validity

TEST(Validity, AcceptsAHandBuiltValidSchedule) {
  const TaskSystem sys = one_task(Weight(1, 2), 4);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 1, 0);
  sched.place(SubtaskRef{0, 1}, 2, 0);
  EXPECT_TRUE(check_slot_schedule(sys, sched).valid());
}

TEST(Validity, DetectsUnscheduled) {
  const TaskSystem sys = one_task(Weight(1, 2), 4);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  const ValidityReport rep = check_slot_schedule(sys, sched);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].kind, Violation::Kind::kUnscheduled);
}

TEST(Validity, DetectsDeadlineMissAndAllowance) {
  const TaskSystem sys = one_task(Weight(1, 2), 4);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 2, 0);  // d = 2, completes at 3
  sched.place(SubtaskRef{0, 1}, 3, 0);  // d = 4, completes at 4: fine
  const ValidityReport rep = check_slot_schedule(sys, sched);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].kind, Violation::Kind::kDeadlineMiss);
  EXPECT_TRUE(check_slot_schedule(sys, sched, 1).valid());
}

TEST(Validity, DetectsBeforeEligible) {
  const TaskSystem sys = one_task(Weight(1, 2), 4);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  sched.place(SubtaskRef{0, 1}, 1, 0);  // r = e = 2, scheduled at 1
  const ValidityReport rep = check_slot_schedule(sys, sched);
  ASSERT_FALSE(rep.valid());
  EXPECT_EQ(rep.violations[0].kind, Violation::Kind::kBeforeEligible);
}

TEST(Validity, DetectsIntraTaskParallelismAndOverload) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(2, 2), 2));
  tasks.push_back(Task::periodic("B", Weight(1, 2), 2));
  const TaskSystem sys(std::move(tasks), 1);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  sched.place(SubtaskRef{0, 1}, 0, 1);  // same slot as its predecessor
  sched.place(SubtaskRef{1, 0}, 0, 2);  // third subtask in slot 0, M = 1
  const ValidityReport rep = check_slot_schedule(sys, sched);
  bool saw_parallel = false, saw_overload = false;
  for (const Violation& v : rep.violations) {
    saw_parallel |= v.kind == Violation::Kind::kIntraTaskParallel;
    saw_overload |= v.kind == Violation::Kind::kOverloadedSlot;
  }
  EXPECT_TRUE(saw_parallel);
  EXPECT_TRUE(saw_overload);
}

// Four tasks of one or two subtasks on M = 1 with slots 1, 5 and 7
// overloaded; task order reaches slot 5 first.  `far` adds two
// one-subtask tasks sharing slot 2^40, which forces the sparse
// (sorted slot list) load count.
SlotSchedule overloaded_schedule(const TaskSystem& sys, bool far) {
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 5, 0);  // A
  sched.place(SubtaskRef{0, 1}, 6, 0);
  sched.place(SubtaskRef{1, 0}, 5, 0);  // B
  sched.place(SubtaskRef{1, 1}, 7, 0);
  sched.place(SubtaskRef{2, 0}, 1, 0);  // C
  sched.place(SubtaskRef{2, 1}, 5, 0);
  sched.place(SubtaskRef{3, 0}, 1, 0);  // D
  sched.place(SubtaskRef{3, 1}, 7, 0);
  if (far) {
    sched.place(SubtaskRef{4, 0}, std::int64_t{1} << 40, 0);
    sched.place(SubtaskRef{5, 0}, std::int64_t{1} << 40, 0);
  }
  return sched;
}

TaskSystem overload_system(bool far) {
  std::vector<Task> tasks;
  for (const char* name : {"A", "B", "C", "D"}) {
    tasks.push_back(Task::periodic(name, Weight(1, 4), 8));
  }
  if (far) {
    tasks.push_back(Task::periodic("E", Weight(1, 4), 4));
    tasks.push_back(Task::periodic("F", Weight(1, 4), 4));
  }
  return TaskSystem(std::move(tasks), 1);
}

std::vector<std::string> overload_details(const ValidityReport& rep) {
  std::vector<std::string> out;
  for (const Violation& v : rep.violations) {
    if (v.kind != Violation::Kind::kOverloadedSlot) continue;
    EXPECT_FALSE(v.ref.valid());
    out.push_back(v.detail);
  }
  return out;
}

TEST(Validity, OverloadedSlotsReportInAscendingSlotOrder) {
  const TaskSystem sys = overload_system(false);
  const std::vector<std::string> want = {
      "slot 1 holds 2 subtasks on 1 processors",
      "slot 5 holds 3 subtasks on 1 processors",
      "slot 7 holds 2 subtasks on 1 processors"};
  EXPECT_EQ(overload_details(
                check_slot_schedule(sys, overloaded_schedule(sys, false))),
            want);

  // The sparse count (a far-out slot) reports the same way.
  const TaskSystem far_sys = overload_system(true);
  std::vector<std::string> far_want = want;
  far_want.push_back("slot 1099511627776 holds 2 subtasks on 1 processors");
  EXPECT_EQ(overload_details(check_slot_schedule(
                far_sys, overloaded_schedule(far_sys, true))),
            far_want);
}

TEST(Validity, FarOutSlotTakesTheSparsePath) {
  // One placement at slot 2^40: a dense per-slot count would need 8 TiB.
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 2));
  tasks.push_back(Task::periodic("B", Weight(1, 2), 2));
  const TaskSystem sys(std::move(tasks), 1);
  constexpr std::int64_t kFar = std::int64_t{1} << 40;
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  sched.place(SubtaskRef{1, 0}, kFar, 0);
  ASSERT_TRUE(sched.complete());

  const ValidityReport rep = check_slot_schedule(sys, sched);
  ASSERT_EQ(rep.violations.size(), 1u) << rep.str();
  EXPECT_EQ(rep.violations[0].kind, Violation::Kind::kDeadlineMiss);
  EXPECT_EQ(rep.violations[0].ref, (SubtaskRef{1, 0}));

  // The recount's slot ordering falls back the same way.
  const QualityCounters q = recount_quality(sys, sched);
  EXPECT_EQ(q.decision_points, kFar + 1);
  EXPECT_EQ(q.idle_slots, kFar + 1 - 2);
  EXPECT_EQ(q.context_switches, 1);
  EXPECT_EQ(q.per_proc_switches, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(q.migrations, 0);
  EXPECT_EQ(q.preemptions, 0);
}

// ------------------------------------------------------------ radix sort

TEST(RadixSort, MatchesStableSortOnInt64KeysIncludingNegatives) {
  Rng rng(77);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{500}, kRadixSortMin,
                              std::size_t{5000}}) {
    std::vector<std::int64_t> v(n);
    for (std::int64_t& x : v) {
      switch (rng.next_u64() % 4) {
        case 0:
          x = static_cast<std::int64_t>(rng.next_u64());  // full range
          break;
        case 1:
          x = -static_cast<std::int64_t>(rng.next_u64() % 1000);
          break;
        default:
          x = static_cast<std::int64_t>(rng.next_u64() % (1u << 27));
      }
    }
    std::vector<std::int64_t> want = v;
    std::sort(want.begin(), want.end());
    std::vector<std::int64_t> scratch;
    std::vector<std::int64_t> radix = v;
    radix_sort_by_key(radix, scratch, [](std::int64_t x) { return x; });
    EXPECT_EQ(radix, want) << "n = " << n;
    sort_int64(v, scratch);
    EXPECT_EQ(v, want) << "n = " << n;
  }
}

TEST(RadixSort, RecordsKeepInsertionOrderAmongEqualKeys) {
  struct Rec {
    std::int64_t key;
    std::size_t pos;
  };
  Rng rng(5);
  std::vector<Rec> v(4000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    // Few distinct keys spread over ~2^30: many ties, several passes.
    v[i] = Rec{static_cast<std::int64_t>(rng.next_u64() % 16) << 26, i};
  }
  std::vector<Rec> want = v;
  std::stable_sort(want.begin(), want.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  std::vector<Rec> scratch;
  radix_sort_by_key(v, scratch, [](const Rec& r) { return r.key; });
  ASSERT_EQ(v.size(), want.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i].key, want[i].key);
    EXPECT_EQ(v[i].pos, want[i].pos);
  }
}

/// Overlap violations of a DVQ schedule, as (ref, detail) pairs.
std::vector<std::pair<SubtaskRef, std::string>> overlaps(
    const ValidityReport& rep) {
  std::vector<std::pair<SubtaskRef, std::string>> out;
  for (const Violation& v : rep.violations) {
    EXPECT_EQ(v.kind, Violation::Kind::kOverloadedSlot) << v.detail;
    out.emplace_back(v.ref, v.detail);
  }
  return out;
}

TEST(Validity, DvqOverlapsMatchAComparisonSortOnBothSidesOfTheRadixThreshold) {
  // n one-subtask tasks, almost all on processor 0, at permuted unit
  // starts; every 50th task shares its predecessor's start and every
  // 50th from 25 starts half a slot late, so both equal starts and
  // partial overlaps occur.  Lanes of 100 and 1100 allocations take the
  // std::sort and the radix branch; both must report like a plain
  // (start, ref) comparison sort, processor by processor.
  for (const std::int32_t n : {100, 1100}) {
    SCOPED_TRACE(n);
    std::vector<Task> tasks;
    for (std::int32_t k = 0; k < n; ++k) {
      tasks.push_back(
          Task::periodic("T" + std::to_string(k), Weight(1, 2048), 2048));
    }
    const TaskSystem sys(std::move(tasks), 2);
    DvqSchedule sched(sys);
    struct Busy {
      Time start, end;
      SubtaskRef ref;
    };
    std::vector<Busy> lanes[2];
    Time prev_start;
    for (std::int32_t k = 0; k < n; ++k) {
      Time start = Time::slots((7 * k) % n);
      if (k > 0 && k % 50 == 0) start = prev_start;
      if (k % 50 == 25) start = start + Time::ticks(kTicksPerSlot / 2);
      prev_start = start;
      const int proc = k % 97 == 1 ? 1 : 0;
      const SubtaskRef ref{k, 0};
      sched.place(ref, start, kQuantum, proc);
      lanes[proc].push_back(Busy{start, start + kQuantum, ref});
    }
    EXPECT_EQ(lanes[0].size() >= kRadixSortMin, n > 1000);

    std::vector<std::pair<SubtaskRef, std::string>> want;
    for (auto& lane : lanes) {
      std::sort(lane.begin(), lane.end(), [](const Busy& a, const Busy& b) {
        return a.start != b.start ? a.start < b.start : a.ref < b.ref;
      });
      for (std::size_t i = 1; i < lane.size(); ++i) {
        if (lane[i].start >= lane[i - 1].end) continue;
        std::ostringstream os;
        os << "overlaps " << lane[i - 1].ref << " on processor (starts "
           << lane[i].start << " before " << lane[i - 1].end << ")";
        want.emplace_back(lane[i].ref, os.str());
      }
    }
    ASSERT_GT(want.size(), 2u);
    EXPECT_EQ(overlaps(check_dvq_schedule(sys, sched, kQuantum)), want);
  }
}

TEST(Validity, DvqChecksOnOneThreadCarryNothingOver) {
  // check_dvq_schedule reuses its per-processor lanes across calls on a
  // thread: a check must report the same whatever was checked before it,
  // on more or fewer processors.
  const auto system = [](std::int32_t n, int m) {
    std::vector<Task> tasks;
    for (std::int32_t k = 0; k < n; ++k) {
      tasks.push_back(
          Task::periodic("T" + std::to_string(k), Weight(1, 4), 4));
    }
    return TaskSystem(std::move(tasks), m);
  };
  const Time half = Time::ticks(kTicksPerSlot / 2);

  const TaskSystem broken_sys = system(3, 2);
  DvqSchedule broken(broken_sys);
  broken.place(SubtaskRef{0, 0}, Time::slots(0), kQuantum, 1);
  broken.place(SubtaskRef{1, 0}, half, kQuantum, 1);
  broken.place(SubtaskRef{2, 0}, Time::slots(0), kQuantum, 0);
  const auto first = overlaps(check_dvq_schedule(broken_sys, broken, kQuantum));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].first, (SubtaskRef{1, 0}));

  // Valid schedules in between: every processor busy at [0.5, 1.5) on
  // four processors, then one processor.
  const TaskSystem wide_sys = system(4, 4);
  DvqSchedule wide(wide_sys);
  for (std::int32_t k = 0; k < 4; ++k) {
    wide.place(SubtaskRef{k, 0}, half, kQuantum, k);
  }
  EXPECT_TRUE(check_dvq_schedule(wide_sys, wide, kQuantum).valid());
  const TaskSystem single_sys = system(1, 1);
  DvqSchedule single(single_sys);
  single.place(SubtaskRef{0, 0}, half, kQuantum, 0);
  EXPECT_TRUE(check_dvq_schedule(single_sys, single, kQuantum).valid());

  EXPECT_EQ(overlaps(check_dvq_schedule(broken_sys, broken, kQuantum)), first);
}

TEST(Validity, ReportStringMentionsKind) {
  const TaskSystem sys = one_task(Weight(1, 2), 4);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 3, 0);
  sched.place(SubtaskRef{0, 1}, 2, 0);
  const ValidityReport rep = check_slot_schedule(sys, sched);
  EXPECT_NE(rep.str().find("violation"), std::string::npos);
  EXPECT_EQ(check_slot_schedule(sys, schedule_sfq(sys)).str(), "valid");
}

TEST(Validity, PrecedenceViolationDetected) {
  const TaskSystem sys = one_task(Weight(1, 2), 6);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 4, 0);
  sched.place(SubtaskRef{0, 1}, 2, 0);  // before its predecessor
  sched.place(SubtaskRef{0, 2}, 5, 0);
  const ValidityReport rep = check_slot_schedule(sys, sched);
  bool saw = false;
  for (const Violation& v : rep.violations) {
    saw |= v.kind == Violation::Kind::kPrecedence;
  }
  EXPECT_TRUE(saw);
}

// -------------------------------------------------------------- tardiness

TEST(Tardiness, SlotScheduleValues) {
  const TaskSystem sys = one_task(Weight(1, 2), 6);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 3, 0);  // d = 2 -> tardiness 2
  sched.place(SubtaskRef{0, 1}, 4, 0);  // d = 4 -> tardiness 1
  sched.place(SubtaskRef{0, 2}, 5, 0);  // d = 6 -> 0
  EXPECT_EQ(subtask_tardiness(sys, sched, SubtaskRef{0, 0}), 2);
  EXPECT_EQ(subtask_tardiness(sys, sched, SubtaskRef{0, 1}), 1);
  EXPECT_EQ(subtask_tardiness(sys, sched, SubtaskRef{0, 2}), 0);
  const TardinessSummary sum = measure_tardiness(sys, sched);
  EXPECT_EQ(sum.max_ticks, 2 * kTicksPerSlot);
  EXPECT_EQ(sum.late_subtasks, 2);
  EXPECT_EQ(sum.total_ticks, 3 * kTicksPerSlot);
  EXPECT_EQ(sum.worst, (SubtaskRef{0, 0}));
  EXPECT_EQ(sum.max_quanta_ceil(), 2);
  EXPECT_FALSE(sum.none_late());
}

TEST(Tardiness, CountsUnscheduled) {
  const TaskSystem sys = one_task(Weight(1, 2), 6);
  const SlotSchedule sched(sys);  // nothing placed
  const TardinessSummary sum = measure_tardiness(sys, sched);
  EXPECT_EQ(sum.unscheduled, 3);
  EXPECT_FALSE(sum.none_late());
}

TEST(Tardiness, ValuesVectorSkipsUnscheduled) {
  const TaskSystem sys = one_task(Weight(1, 2), 6);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  EXPECT_EQ(tardiness_values_ticks(sys, sched).size(), 1u);
}

// -------------------------------------------------------------------- lag

TEST(Lag, ZeroAtBoundariesOfAPerfectlyPeriodicSchedule) {
  // Weight 1/2 scheduled in every even slot: lag oscillates 0, 1/2, 0...
  const TaskSystem sys = one_task(Weight(1, 2), 8);
  SlotSchedule sched(sys);
  for (std::int32_t s = 0; s < 4; ++s) {
    sched.place(SubtaskRef{0, s}, 2 * s, 0);
  }
  EXPECT_EQ(lag(sys, sched, 0, 0), Rational(0));
  EXPECT_EQ(lag(sys, sched, 0, 1), Rational(-1, 2));
  EXPECT_EQ(lag(sys, sched, 0, 2), Rational(0));
  EXPECT_EQ(lag(sys, sched, 0, 8), Rational(0));
}

TEST(Lag, LateExecutionGivesPositiveLag) {
  const TaskSystem sys = one_task(Weight(1, 2), 4);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 1, 0);
  sched.place(SubtaskRef{0, 1}, 3, 0);
  EXPECT_EQ(lag(sys, sched, 0, 1), Rational(1, 2));
  const LagRange r = lag_range(sys, sched, 4);
  EXPECT_EQ(r.max, Rational(1, 2));
  EXPECT_EQ(r.min, Rational(0));
  EXPECT_TRUE(is_pfair(sys, sched, 4));
}

TEST(Lag, MissedDeadlineBreaksPfairness) {
  const TaskSystem sys = one_task(Weight(1, 2), 4);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 2, 0);  // window [0,2) missed
  sched.place(SubtaskRef{0, 1}, 3, 0);
  // lag at t = 2 is 1 (one full quantum behind): not Pfair.
  EXPECT_EQ(lag(sys, sched, 0, 2), Rational(1));
  EXPECT_FALSE(is_pfair(sys, sched, 4));
}

TEST(Lag, Pd2SchedulesArePfairAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 2;
    cfg.target_util = Rational(2);
    cfg.horizon = 18;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const SlotSchedule sched = schedule_sfq(sys);
    ASSERT_TRUE(sched.complete());
    EXPECT_TRUE(is_pfair(sys, sched, cfg.horizon)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pfair
