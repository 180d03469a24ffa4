// Tests for the extension modules: hyperperiod analysis, CSV schedule
// export, the fractional-tail yield model (the paper's future work), and
// failure-injection checks on infeasible / overloaded systems.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/hyperperiod.hpp"
#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "io/export.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

// ------------------------------------------------------------- hyperperiod

TEST(Hyperperiod, LcmOfPeriods) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 4), 4));
  tasks.push_back(Task::periodic("B", Weight(1, 6), 6));
  tasks.push_back(Task::periodic("C", Weight(1, 10), 10));
  const TaskSystem sys(std::move(tasks), 1);
  EXPECT_EQ(hyperperiod(sys), 60);
  EXPECT_THROW((void)hyperperiod(TaskSystem({}, 1)), ContractViolation);
}

// Coprime periods near the 2^40 bound: an lcm just under it is exact,
// one whose product overflows int64 is refused, not computed.
TEST(Hyperperiod, CoprimePeriodsNearTheBound) {
  constexpr std::int64_t kTwo20 = std::int64_t{1} << 20;
  constexpr std::int64_t kTwo40 = std::int64_t{1} << 40;
  const auto pair = [](std::int64_t p, std::int64_t q) {
    std::vector<Task> tasks;
    tasks.push_back(Task::periodic("A", Weight(1, p), 4));
    tasks.push_back(Task::periodic("B", Weight(1, q), 4));
    return TaskSystem(std::move(tasks), 1);
  };
  EXPECT_EQ(hyperperiod(pair(kTwo20 - 1, kTwo20)), kTwo40 - kTwo20);
  EXPECT_THROW((void)hyperperiod(pair(kTwo40 - 1, kTwo40)),
               ContractViolation);
}

TEST(Hyperperiod, Pd2ScheduleRepeats) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 2;
    cfg.target_util = Rational(2);
    cfg.seed = seed;
    // Generate over one hyperperiod-agnostic horizon, then rebuild the
    // same weights over two hyperperiods.
    cfg.horizon = 4;
    const TaskSystem probe = generate_periodic(cfg);
    const std::int64_t h = hyperperiod(probe);
    if (h > 120) continue;  // keep the test fast
    std::vector<Task> tasks;
    for (const Task& t : probe.tasks()) {
      tasks.push_back(Task::periodic(t.name(), t.weight(), 2 * h));
    }
    const TaskSystem sys(std::move(tasks), 2);
    const SlotSchedule sched = schedule_sfq(sys);
    ASSERT_TRUE(sched.complete()) << "seed " << seed;
    const PeriodicityReport rep = check_schedule_periodicity(sys, sched);
    ASSERT_TRUE(rep.applicable) << "seed " << seed;
    EXPECT_TRUE(rep.periodic) << "seed " << seed << " H=" << rep.hyper;
  }
}

TEST(Hyperperiod, UnderUtilizedSystemsAreNowCovered) {
  // Utilization < M: idle slots are part of the repeating pattern, so the
  // fingerprint-based check applies where the old slot-set check bailed.
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 8));
  const TaskSystem slack(std::move(tasks), 2);
  const SlotSchedule sched = schedule_sfq(slack);
  const PeriodicityReport rep = check_schedule_periodicity(slack, sched);
  EXPECT_TRUE(rep.applicable);
  EXPECT_TRUE(rep.periodic);
  EXPECT_FALSE(rep.fully_utilized);
  EXPECT_EQ(rep.prefix_slots, 0);
}

TEST(Hyperperiod, NotApplicableCases) {
  // Too-short schedule: not applicable.
  std::vector<Task> t2;
  t2.push_back(Task::periodic("A", Weight(1, 1), 1));
  const TaskSystem brief(std::move(t2), 1);
  EXPECT_FALSE(
      check_schedule_periodicity(brief, schedule_sfq(brief)).applicable);

  // Phased system: release anchors carry state the fingerprint cannot
  // normalize away — refused.
  std::vector<Task> t3;
  t3.push_back(Task::periodic_phased("A", Weight(1, 2), 1, 9));
  t3.push_back(Task::periodic("B", Weight(1, 2), 8));
  const TaskSystem phased(std::move(t3), 2);
  EXPECT_FALSE(
      check_schedule_periodicity(phased, schedule_sfq(phased)).applicable);
}

// ------------------------------------------------------------------ export

TEST(Export, TaskSystemCsvHasOneRowPerSubtask) {
  GeneratorConfig cfg;
  cfg.processors = 2;
  cfg.target_util = Rational(2);
  cfg.horizon = 8;
  cfg.seed = 3;
  const TaskSystem sys = generate_periodic(cfg);
  const CsvWriter w = export_task_system(sys);
  EXPECT_EQ(static_cast<std::int64_t>(w.rows()), sys.total_subtasks());
}

TEST(Export, SlotScheduleCsvRoundTripsValues) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 4));
  const TaskSystem sys(std::move(tasks), 1);
  const SlotSchedule sched = schedule_sfq(sys);
  std::ostringstream os;
  export_slot_schedule(sys, sched).write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("task,name,index,slot"), std::string::npos);
  // Subtask 1 of A is scheduled in slot 0 or 1 with tardiness 0.
  EXPECT_NE(out.find("0,A,1,"), std::string::npos);
  EXPECT_NE(out.find(",0\n"), std::string::npos);
}

TEST(Export, DvqScheduleCsvUsesExactTicks) {
  std::vector<Task> tasks;
  tasks.push_back(
      Task::periodic("A", Weight(2, 2), 2).with_early_release());
  const TaskSystem sys(std::move(tasks), 1);
  const FixedYield yields(Time::ticks(kTicksPerSlot / 4));
  const DvqSchedule dvq = schedule_dvq(sys, yields);
  std::ostringstream os;
  export_dvq_schedule(sys, dvq).write(os);
  // Second subtask starts at 3/4 slot = 786432 ticks.
  EXPECT_NE(os.str().find("786432"), std::string::npos) << os.str();
}

// -------------------------------------------------- fractional-tail yields

TEST(FractionalTail, OnlyJobTailsShortened) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(3, 4), 8));
  const TaskSystem sys(std::move(tasks), 1);
  const FractionalTailYield yields(Time::ticks(kTicksPerSlot / 2));
  // Subtasks 1, 2 are full; subtask 3 (job tail, index % e == 0) is half.
  EXPECT_EQ(yields.cost(sys, SubtaskRef{0, 0}), kQuantum);
  EXPECT_EQ(yields.cost(sys, SubtaskRef{0, 1}), kQuantum);
  EXPECT_EQ(yields.cost(sys, SubtaskRef{0, 2}),
            Time::ticks(kTicksPerSlot / 2));
  EXPECT_EQ(yields.cost(sys, SubtaskRef{0, 5}),
            Time::ticks(kTicksPerSlot / 2));
  EXPECT_THROW((void)FractionalTailYield{Time()}, ContractViolation);
}

TEST(FractionalTail, Theorem3StillHolds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 3;
    cfg.target_util = Rational(3);
    cfg.horizon = 24;
    cfg.weights = WeightClass::kHeavy;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const FractionalTailYield yields(Time::ticks(kTicksPerSlot / 3 + 1));
    const DvqSchedule dvq = schedule_dvq(sys, yields);
    ASSERT_TRUE(dvq.complete()) << "seed " << seed;
    EXPECT_LT(measure_tardiness(sys, dvq).max_ticks, kTicksPerSlot)
        << "seed " << seed;
  }
}

// -------------------------------------------------------- failure injection

TEST(FailureInjection, OverloadedSystemMissesUnderPd2) {
  // util = 3 on M = 2: infeasible; PD2 must exhibit misses (tardiness
  // grows) and the checker must flag the schedule.
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 1), 12));
  tasks.push_back(Task::periodic("B", Weight(1, 1), 12));
  tasks.push_back(Task::periodic("C", Weight(1, 1), 12));
  const TaskSystem sys(std::move(tasks), 2);
  ASSERT_FALSE(sys.feasible());
  const SlotSchedule sched = schedule_sfq(sys);
  const TardinessSummary sum = measure_tardiness(sys, sched);
  EXPECT_TRUE(sum.max_ticks > 0 || sum.unscheduled > 0);
  EXPECT_FALSE(check_slot_schedule(sys, sched).valid());
}

TEST(FailureInjection, OverloadTardinessGrowsWithHorizon) {
  // On an infeasible system the backlog grows linearly — no bounded
  // tardiness exists (contrast with Theorem 3's bounded result for
  // feasible systems).
  std::int64_t prev = 0;
  for (const std::int64_t horizon : {6, 12, 24}) {
    std::vector<Task> tasks;
    tasks.push_back(Task::periodic("A", Weight(1, 1), horizon));
    tasks.push_back(Task::periodic("B", Weight(1, 1), horizon));
    tasks.push_back(Task::periodic("C", Weight(1, 1), horizon));
    const TaskSystem sys(std::move(tasks), 2);
    const SlotSchedule sched = schedule_sfq(sys);
    const std::int64_t t = measure_tardiness(sys, sched).max_ticks;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(FailureInjection, DvqOverloadAlsoUnbounded) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 1), 12));
  tasks.push_back(Task::periodic("B", Weight(1, 1), 12));
  tasks.push_back(Task::periodic("C", Weight(1, 1), 12));
  const TaskSystem sys(std::move(tasks), 2);
  const FullQuantumYield yields;
  const DvqSchedule dvq = schedule_dvq(sys, yields);
  EXPECT_GT(measure_tardiness(sys, dvq).max_ticks, kTicksPerSlot);
}

}  // namespace
}  // namespace pfair
