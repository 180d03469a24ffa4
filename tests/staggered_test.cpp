// Tests for the staggered quantum model (Holman & Anderson), a fixed-
// quantum special case of the DVQ model — Theorem 3 applies to it too.
#include <gtest/gtest.h>

#include <map>

#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "dvq/staggered.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

TEST(Staggered, SingleProcessorEqualsSfq) {
  // With M = 1 the stagger offset is 0 and every quantum starts on a slot
  // boundary — the schedule must coincide with SFQ's.
  GeneratorConfig cfg;
  cfg.processors = 1;
  cfg.target_util = Rational(1);
  cfg.horizon = 16;
  cfg.seed = 2;
  const TaskSystem sys = generate_periodic(cfg);
  const FullQuantumYield yields;
  const DvqSchedule stag = schedule_staggered(sys, yields);
  const SlotSchedule sfq = schedule_sfq(sys);
  ASSERT_TRUE(stag.complete());
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      EXPECT_EQ(stag.placement(ref).start,
                Time::slots(sfq.placement(ref).slot));
    }
  }
}

TEST(Staggered, StartsLieOnTheStaggeredGrid) {
  GeneratorConfig cfg;
  cfg.processors = 4;
  cfg.target_util = Rational(4);
  cfg.horizon = 16;
  cfg.seed = 3;
  const TaskSystem sys = generate_periodic(cfg);
  const FullQuantumYield yields;
  const DvqSchedule sched = schedule_staggered(sys, yields);
  ASSERT_TRUE(sched.complete());
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const DvqPlacement& p = sched.placement(SubtaskRef{k, s});
      const std::int64_t offset =
          p.start.raw_ticks() -
          p.start.slot_floor() * kTicksPerSlot;
      EXPECT_EQ(offset, static_cast<std::int64_t>(p.proc) * kTicksPerSlot / 4)
          << "proc " << p.proc;
    }
  }
}

TEST(Staggered, NoSimultaneousDecisions) {
  // The staggered model's purpose: decision instants never coincide
  // across processors (for M not dividing into equal co-incident
  // offsets), spreading bus traffic.
  GeneratorConfig cfg;
  cfg.processors = 4;
  cfg.target_util = Rational(4);
  cfg.horizon = 12;
  cfg.seed = 4;
  const TaskSystem sys = generate_periodic(cfg);
  const FullQuantumYield yields;
  const DvqSchedule sched = schedule_staggered(sys, yields);
  ASSERT_TRUE(sched.complete());
  // Each staggered decision starts exactly one subtask, so decisions per
  // instant are placements per start tick.
  std::map<std::int64_t, int> per_instant;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      ++per_instant[sched.placement(SubtaskRef{k, s}).start.raw_ticks()];
    }
  }
  for (const auto& [at, n] : per_instant) {
    EXPECT_EQ(n, 1) << "simultaneous decisions at tick " << at;
  }
}

TEST(Staggered, TardinessWithinOneQuantum) {
  // Staggering is a DVQ special case, so Theorem 3's bound applies; with
  // full quanta the stagger itself is the only source of lateness.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 4;
    cfg.target_util = Rational(4);
    cfg.horizon = 20;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const FullQuantumYield yields;
    const DvqSchedule sched = schedule_staggered(sys, yields);
    ASSERT_TRUE(sched.complete()) << "seed " << seed;
    const TardinessSummary sum = measure_tardiness(sys, sched);
    EXPECT_LT(sum.max_ticks, kTicksPerSlot)
        << "seed " << seed << "\n" << sys.summary();
    EXPECT_TRUE(check_dvq_schedule(sys, sched, kQuantum).valid());
  }
}

TEST(Staggered, EarlyYieldsIdleUntilOwnBoundary) {
  // Staggering alone is not work-conserving: a yielded remainder is lost.
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("T", Weight(2, 2), 2).with_early_release());
  const TaskSystem sys(std::move(tasks), 2);
  const FixedYield yields(Time::ticks(kTicksPerSlot / 2));
  const DvqSchedule sched = schedule_staggered(sys, yields);
  ASSERT_TRUE(sched.complete());
  const DvqPlacement& p0 = sched.placement(SubtaskRef{0, 0});
  const DvqPlacement& p1 = sched.placement(SubtaskRef{0, 1});
  // T_1 on processor 0 at t=0 yields at 0.5; T_2 (eligible at 0) can only
  // start at the next grid point after 0.5 on either processor — 0.5 is
  // exactly processor 1's boundary, so T_2 starts there, not at 0.5001.
  EXPECT_EQ(p0.start, Time::slots(0));
  EXPECT_TRUE(p1.start == Time::slots_frac(0, 1, 2) ||
              p1.start == Time::slots(1))
      << p1.start.str();
}

}  // namespace
}  // namespace pfair
