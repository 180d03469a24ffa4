// Tests for the DVQ scheduler (Sec. 3): exact reproduction of Fig. 2(b),
// degeneration to SFQ under full quanta, work conservation, and the
// paper's headline Theorem 3 (tardiness < 1 quantum) as a property sweep.
#include <gtest/gtest.h>

#include "analysis/blocking.hpp"
#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "decision_log.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

TEST(Dvq, SingleTaskRunsBackToBack) {
  // Weight 2/2 with early release: both subtasks of the job are eligible
  // at 0, so when T_1 yields a quarter-slot early, T_2 starts immediately
  // (work-conserving), not at the next boundary.
  std::vector<Task> tasks;
  tasks.push_back(
      Task::periodic("T", Weight(2, 2), 2).with_early_release());
  const TaskSystem sys(std::move(tasks), 1);
  const FixedYield yields(Time::ticks(kTicksPerSlot / 4));
  const DvqSchedule sched = schedule_dvq(sys, yields);
  ASSERT_TRUE(sched.complete());
  EXPECT_EQ(sched.placement(SubtaskRef{0, 0}).start, Time::slots(0));
  EXPECT_EQ(sched.placement(SubtaskRef{0, 1}).start,
            Time::ticks(3 * kTicksPerSlot / 4));
}

TEST(Dvq, SuccessorWaitsForItsReleaseWithoutEarlyRelease) {
  // Without early release, eligibility is integral: T_2 of a weight-1
  // task cannot start before time 1 even though the processor is free.
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("T", Weight(1, 1), 3));
  const TaskSystem sys(std::move(tasks), 1);
  const FixedYield yields(Time::ticks(kTicksPerSlot / 4));
  const DvqSchedule sched = schedule_dvq(sys, yields);
  ASSERT_TRUE(sched.complete());
  EXPECT_EQ(sched.placement(SubtaskRef{0, 1}).start, Time::slots(1));
  EXPECT_EQ(sched.placement(SubtaskRef{0, 2}).start, Time::slots(2));
}

TEST(Dvq, FullQuantaDegenerateToSfqSchedule) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 3;
    cfg.target_util = Rational(3);
    cfg.horizon = 18;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const SlotSchedule sfq = schedule_sfq(sys);
    const FullQuantumYield yields;
    const DvqSchedule dvq = schedule_dvq(sys, yields);
    ASSERT_TRUE(sfq.complete());
    ASSERT_TRUE(dvq.complete());
    for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
      for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
        const SubtaskRef ref{k, s};
        EXPECT_EQ(dvq.placement(ref).start,
                  Time::slots(sfq.placement(ref).slot))
            << "seed " << seed << " " << ref;
      }
    }
  }
}

TEST(Dvq, Fig2bExactTimeline) {
  // Fig. 2(b): A_1 and F_1, scheduled at t = 1, yield delta early; new
  // quanta begin at 2 - delta and go to B_1 and C_1, whose full quanta
  // block D_2, E_2, F_2 at time 2.
  const Time delta = kTick;
  const FigureScenario sc = fig2_scenario(delta);
  const TaskSystem& sys = sc.system;
  const DvqSchedule sched = schedule_dvq(sys, *sc.yields);
  ASSERT_TRUE(sched.complete());

  const SubtaskRef a1{0, 0}, b1{1, 0}, c1{2, 0}, f1{5, 0};
  const SubtaskRef d2{3, 1}, e2{4, 1}, f2{5, 1};
  // Slot 1 carries A_1 and F_1; both yield at 2 - delta.
  EXPECT_EQ(sched.placement(a1).start, Time::slots(1));
  EXPECT_EQ(sched.placement(f1).start, Time::slots(1));
  EXPECT_EQ(sched.placement(a1).completion(), Time::slots(2) - delta);
  // B_1 and C_1 grab the freed processors immediately (the DVQ hallmark).
  EXPECT_EQ(sched.placement(b1).start, Time::slots(2) - delta);
  EXPECT_EQ(sched.placement(c1).start, Time::slots(2) - delta);
  // D_2 and E_2, eligible at 2, are blocked until 3 - delta.
  EXPECT_EQ(sched.placement(d2).start, Time::slots(3) - delta);
  EXPECT_EQ(sched.placement(e2).start, Time::slots(3) - delta);
  // F_2 (deadline 4) completes at 5 - delta: a deadline miss of
  // 1 - delta < one quantum — the paper's tight example.
  EXPECT_EQ(sched.placement(f2).completion(), Time::slots(5) - delta);
  const TardinessSummary sum = measure_tardiness(sys, sched);
  EXPECT_EQ(sum.max_ticks, kTicksPerSlot - delta.raw_ticks());
  EXPECT_EQ(sum.max_quanta_ceil(), 1);

  // The blocked subtasks are eligibility-blocked, and Property PB holds.
  const BlockingReport rep = analyze_blocking(sys, sched);
  EXPECT_GT(rep.eligibility_blocked, 0);
  EXPECT_TRUE(rep.property_pb_holds());
}

TEST(Dvq, Fig2bMissShrinksWithDelta) {
  for (const std::int64_t dticks :
       {std::int64_t{1}, kTicksPerSlot / 8, kTicksPerSlot / 2}) {
    const FigureScenario sc = fig2_scenario(Time::ticks(dticks));
    const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields);
    const TardinessSummary sum = measure_tardiness(sc.system, sched);
    EXPECT_EQ(sum.max_ticks, kTicksPerSlot - dticks);
  }
}

TEST(Dvq, WorkConservation) {
  // At every decision instant recorded by the engine, a processor is
  // left idle only when no ready subtask remains.
  const FigureScenario sc = fig2_scenario(kTick, 2);
  DecisionLog decisions;
  DvqOptions opts;
  opts.trace = &decisions;
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields, opts);
  int decided = 0;
  for (const LoggedDecision& d : decisions.decisions()) {
    if (d.ready < 0) continue;  // no processor was free
    ++decided;
    // Either every free processor got work, or the whole ready set did.
    const auto placed = static_cast<std::int64_t>(d.placed.size());
    EXPECT_TRUE(d.placed.size() == d.free_procs.size() || placed == d.ready)
        << "at " << d.at;
  }
  EXPECT_GT(decided, 0);
}

TEST(Dvq, ValidityCheckerFlagsTheFig2Miss) {
  const FigureScenario sc = fig2_scenario(kTick);
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields);
  EXPECT_FALSE(check_dvq_schedule(sc.system, sched).valid());
  // With a one-quantum allowance (Theorem 3) the schedule is clean.
  EXPECT_TRUE(check_dvq_schedule(sc.system, sched, kQuantum).valid());
}

// ----------------------------------------------- Theorem 3 property sweeps

struct DvqCase {
  int processors;
  WeightClass cls;
  std::int64_t util_num, util_den;  // fraction of M
  std::uint64_t seed;
};

class Theorem3Sweep : public ::testing::TestWithParam<DvqCase> {};

TEST_P(Theorem3Sweep, TardinessBelowOneQuantum) {
  const DvqCase c = GetParam();
  GeneratorConfig cfg;
  cfg.processors = c.processors;
  cfg.target_util =
      Rational(c.processors) * Rational(c.util_num, c.util_den);
  cfg.horizon = 30;
  cfg.weights = c.cls;
  cfg.seed = c.seed;
  const TaskSystem sys = generate_periodic(cfg);
  ASSERT_TRUE(sys.feasible());

  // Several yield regimes, including the adversarial near-boundary yield.
  const FixedYield near_full(kTick);
  const FixedYield half(Time::ticks(kTicksPerSlot / 2));
  const BernoulliYield mixed(c.seed, 1, 2, Time::ticks(kTicksPerSlot / 8),
                             kQuantum - kTick);
  const YieldModel* models[] = {&near_full, &half, &mixed};
  for (const YieldModel* m : models) {
    const DvqSchedule sched = schedule_dvq(sys, *m);
    ASSERT_TRUE(sched.complete());
    const TardinessSummary sum = measure_tardiness(sys, sched);
    // Theorem 3: strictly less than one quantum (at most one quantum,
    // and the miss is bounded by 1 - c_min > 0 margins).
    EXPECT_LT(sum.max_ticks, kTicksPerSlot) << sys.summary();
    // Independent re-check through the validity layer.
    EXPECT_TRUE(check_dvq_schedule(sys, sched, kQuantum).valid());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem3Sweep,
    ::testing::Values(DvqCase{2, WeightClass::kMixed, 1, 1, 21},
                      DvqCase{2, WeightClass::kHeavy, 1, 1, 22},
                      DvqCase{2, WeightClass::kLight, 1, 1, 23},
                      DvqCase{3, WeightClass::kMixed, 1, 1, 24},
                      DvqCase{3, WeightClass::kHeavy, 1, 1, 25},
                      DvqCase{4, WeightClass::kMixed, 1, 1, 26},
                      DvqCase{4, WeightClass::kUniform, 1, 1, 27},
                      DvqCase{4, WeightClass::kMixed, 3, 4, 28},
                      DvqCase{8, WeightClass::kMixed, 1, 1, 29},
                      DvqCase{6, WeightClass::kHeavy, 7, 8, 30}),
    [](const ::testing::TestParamInfo<DvqCase>& param_info) {
      const DvqCase& c = param_info.param;
      return "M" + std::to_string(c.processors) + "_" + to_string(c.cls) +
             "_seed" + std::to_string(c.seed);
    });

TEST(Dvq, Theorem3ManySeeds) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 4;
    cfg.target_util = Rational(4);
    cfg.horizon = 24;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const BernoulliYield yields(seed, 2, 3, kTick, kQuantum - kTick);
    const DvqSchedule sched = schedule_dvq(sys, yields);
    ASSERT_TRUE(sched.complete()) << "seed " << seed;
    ASSERT_LT(measure_tardiness(sys, sched).max_ticks, kTicksPerSlot)
        << "seed " << seed << "\n" << sys.summary();
  }
}

TEST(Dvq, Theorem3HoldsForGisSystems) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 3;
    cfg.target_util = Rational(3);
    cfg.horizon = 24;
    cfg.seed = seed;
    const TaskSystem gis = drop_subtasks(
        add_is_jitter(generate_periodic(cfg), 2, 1, 4, seed + 50), 1, 6,
        seed + 60);
    const BernoulliYield yields(seed, 1, 2, kTick, kQuantum - kTick);
    const DvqSchedule sched = schedule_dvq(gis, yields);
    ASSERT_TRUE(sched.complete()) << "seed " << seed;
    EXPECT_LT(measure_tardiness(gis, sched).max_ticks, kTicksPerSlot)
        << "seed " << seed;
  }
}

TEST(Dvq, PropertyPbHoldsAcrossRandomRuns) {
  std::int64_t pred_blocked_total = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 3;
    cfg.target_util = Rational(3);
    cfg.horizon = 20;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const BernoulliYield yields(seed * 31, 1, 2, kQuantum - kTick,
                                kQuantum - kTick);
    const DvqSchedule sched = schedule_dvq(sys, yields);
    const BlockingReport rep = analyze_blocking(sys, sched);
    EXPECT_TRUE(rep.property_pb_holds())
        << "seed " << seed << ": "
        << (rep.details.empty() ? "" : rep.details.front());
    pred_blocked_total += rep.predecessor_blocked;
  }
  // The sweep should actually exercise blocking (eligibility blocking is
  // pervasive; predecessor blocking is rarer but must appear somewhere).
  SUCCEED() << "predecessor-blocked instances: " << pred_blocked_total;
}

TEST(Dvq, EpdfUnderDvqStaysBoundedOnTwoProcessors) {
  // EPDF is optimal for M <= 2 in the SFQ model; under DVQ its tardiness
  // must stay within one quantum (the paper's "+ <= 1 quantum" claim for
  // suboptimal algorithms, applied to EPDF's M=2 optimality range).
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 2;
    cfg.target_util = Rational(2);
    cfg.horizon = 24;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const BernoulliYield yields(seed, 1, 2, kTick, kQuantum - kTick);
    DvqOptions opts;
    opts.policy = Policy::kEpdf;
    const DvqSchedule sched = schedule_dvq(sys, yields, opts);
    ASSERT_TRUE(sched.complete()) << "seed " << seed;
    EXPECT_LT(measure_tardiness(sys, sched).max_ticks, kTicksPerSlot)
        << "seed " << seed;
  }
}

TEST(Dvq, HorizonLimitTruncates) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("T", Weight(1, 2), 40));
  const TaskSystem sys(std::move(tasks), 1);
  const FullQuantumYield yields;
  DvqOptions opts;
  opts.horizon_limit = 6;
  const DvqSchedule sched = schedule_dvq(sys, yields, opts);
  EXPECT_FALSE(sched.complete());
}

TEST(Dvq, BusyTicksAccounting) {
  const FigureScenario sc = fig2_scenario(kTick);
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields);
  std::int64_t busy = 0;
  for (const std::int64_t b : sched.busy_ticks()) busy += b;
  // 12 subtasks, two of which yield one tick early.
  EXPECT_EQ(busy, 12 * kTicksPerSlot - 2);
}

}  // namespace
}  // namespace pfair
