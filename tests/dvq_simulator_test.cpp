// Tests for the stepwise DvqSimulator.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dvq/dvq_scheduler.hpp"
#include "dvq/dvq_simulator.hpp"
#include "dvq/reference_scheduler.hpp"
#include "workload/generator.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

TEST(DvqSimulator, MatchesBatchScheduler) {
  GeneratorConfig cfg;
  cfg.processors = 3;
  cfg.target_util = Rational(3);
  cfg.horizon = 16;
  cfg.seed = 21;
  const TaskSystem sys = generate_periodic(cfg);
  const BernoulliYield yields(4, 1, 2, kTick, kQuantum - kTick);

  const DvqSchedule batch = schedule_dvq(sys, yields);
  DvqSimulator sim(sys, yields);
  while (!sim.done() && sim.has_events()) sim.step();
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      ASSERT_EQ(sim.schedule().placement(ref).start,
                batch.placement(ref).start);
      ASSERT_EQ(sim.schedule().placement(ref).proc,
                batch.placement(ref).proc);
    }
  }
}

TEST(DvqSimulator, StepsThroughTheFig2Story) {
  const FigureScenario sc = fig2_scenario(kTick);
  DvqSimulator sim(sc.system, *sc.yields);

  // First event: t = 0, D_1 and E_1 start.
  std::vector<SubtaskRef> s0 = sim.step();
  EXPECT_EQ(sim.now(), Time::slots(0));
  ASSERT_EQ(s0.size(), 2u);
  EXPECT_EQ(s0[0], (SubtaskRef{3, 0}));
  EXPECT_EQ(s0[1], (SubtaskRef{4, 0}));
  EXPECT_TRUE(sim.idle_processors().empty());

  // t = 1: F_1 and A_1.
  const std::vector<SubtaskRef> s1 = sim.step();
  EXPECT_EQ(sim.now(), Time::slots(1));
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s1[0], (SubtaskRef{5, 0}));
  EXPECT_EQ(s1[1], (SubtaskRef{0, 0}));

  // t = 2 - delta: the early yields free both processors; B_1, C_1 grab
  // them — the DVQ hallmark, observed mid-run.
  const std::vector<SubtaskRef> s2 = sim.step();
  EXPECT_EQ(sim.now(), Time::slots(2) - kTick);
  ASSERT_EQ(s2.size(), 2u);
  EXPECT_EQ(s2[0], (SubtaskRef{1, 0}));
  EXPECT_EQ(s2[1], (SubtaskRef{2, 0}));

  // t = 2: D_2/E_2/F_2 become eligible but no processor is free: the
  // step processes the eligibility event and starts nothing.
  const std::vector<SubtaskRef> s3 = sim.step();
  EXPECT_EQ(sim.now(), Time::slots(2));
  EXPECT_TRUE(s3.empty());
  EXPECT_TRUE(sim.idle_processors().empty());

  while (!sim.done() && sim.has_events()) sim.step();
  EXPECT_TRUE(sim.done());
}

TEST(DvqSimulator, RunUntilStopsAtLimit) {
  const FigureScenario sc = fig2_scenario(kTick);
  DvqSimulator sim(sc.system, *sc.yields);
  sim.run_until(Time::slots(2));
  // Events at or past 2 are not processed: only slots 0, 1 and the
  // 2 - delta batch ran.
  EXPECT_LT(sim.now(), Time::slots(2));
  EXPECT_FALSE(sim.done());
}

// Every placement field, the makespan and the per-processor busy time;
// empty when the schedules agree, else the first difference.
std::string dvq_difference(const TaskSystem& sys, const DvqSchedule& a,
                           const DvqSchedule& b) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const DvqPlacement pa = a.placement(ref);
      const DvqPlacement pb = b.placement(ref);
      if (pa.placed != pb.placed || pa.start != pb.start ||
          pa.cost != pb.cost || pa.proc != pb.proc) {
        std::ostringstream os;
        os << ref << ": start " << pa.start << " vs " << pb.start
           << ", proc " << pa.proc << " vs " << pb.proc;
        return os.str();
      }
    }
  }
  if (a.makespan() != b.makespan()) return "makespan";
  if (a.busy_ticks() != b.busy_ticks()) return "busy ticks";
  return "";
}

// The slot calendar and the completion hand-off against the naive
// reference, over seeded systems that take every readiness route:
// phased tasks (first eligibility after 0), IS jitter and GIS drops
// (eligibility long after the predecessor completes: the calendar),
// early release (eligibility before the completion: the hand-off), and
// full-quantum yields, whose completions land exactly on the successor's
// eligibility boundary (the hand-off tie).  PF takes the unpacked ready
// heap.  step()-driven runs must match run_until().
TEST(DvqSimulator, SeededSweepMatchesReference) {
  const Policy policies[] = {Policy::kPd2, Policy::kEpdf, Policy::kPf};
  for (int seed = 0; seed < 40; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 2 + seed % 3;
    cfg.target_util = seed % 4 == 0 ? Rational(2 * cfg.processors - 1, 2)
                                    : Rational(cfg.processors);
    cfg.horizon = 30;
    cfg.seed = static_cast<std::uint64_t>(500 + seed);
    const TaskSystem base = generate_periodic(cfg);
    TaskSystem sys = base;
    switch (seed % 5) {
      case 0:
        break;
      case 1:
        sys = add_is_jitter(base, 3, 1, 3, cfg.seed);
        break;
      case 2:
        sys = drop_subtasks(base, 1, 3, cfg.seed);
        break;
      case 3:
        sys = base.with_early_release();
        break;
      case 4: {
        std::vector<Task> phased;
        for (std::int64_t k = 0; k < base.num_tasks(); ++k) {
          const Task& t = base.task(k);
          phased.push_back(Task::periodic_phased(t.name(), t.weight(), k % 4,
                                                 cfg.horizon + k % 4));
        }
        sys = TaskSystem(std::move(phased), cfg.processors);
        break;
      }
    }
    const FullQuantumYield full;
    const BernoulliYield bern(static_cast<std::uint64_t>(seed), 1, 2, kTick,
                              kQuantum - kTick);
    const FixedYield fixed(Time::slots_frac(0, 1, 4));
    const YieldModel* models[] = {&full, &bern, &fixed};
    const YieldModel& yields = *models[seed % 3];
    DvqOptions opts;
    opts.policy = policies[seed % 3];
    const std::string tag = "seed " + std::to_string(seed);

    const DvqSchedule ref = schedule_dvq_reference(sys, yields, opts);
    ASSERT_TRUE(ref.complete()) << tag;
    EXPECT_EQ(dvq_difference(sys, schedule_dvq(sys, yields, opts), ref), "")
        << tag;
    DvqSimulator stepped(sys, yields, opts.policy);
    while (!stepped.done() && stepped.has_events()) stepped.step();
    EXPECT_EQ(dvq_difference(sys, stepped.schedule(), ref), "") << tag;
    // run_until in several legs, each stopping short of an event.
    DvqSimulator legs(sys, yields, opts.policy);
    for (std::int64_t t = 1; !legs.done() && t < 1000; t += 7) {
      legs.run_until(Time::slots(t) + Time::ticks(kTicksPerSlot / 3));
    }
    EXPECT_EQ(dvq_difference(sys, legs.schedule(), ref), "") << tag;
  }
}

}  // namespace
}  // namespace pfair
