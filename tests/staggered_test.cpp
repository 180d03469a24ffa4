// Tests for the staggered quantum model (Holman & Anderson), a fixed-
// quantum special case of the DVQ model — Theorem 3 applies to it too.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "dvq/dvq_simulator.hpp"
#include "dvq/staggered.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

// The oracle: the staggered model as a plain boundary walk that rescans
// every task at each of the M boundaries per slot, O(n * M) each.  It
// shares nothing with DvqSimulator (no ready queue, no packed keys, no
// calendar) — only the task system, the yield model and PriorityOrder.
DvqSchedule naive_staggered(const TaskSystem& sys, const YieldModel& yields,
                            const StaggeredOptions& opts = {}) {
  const std::int64_t slot_limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  const PriorityOrder order(sys, opts.policy);
  DvqSchedule sched(sys);

  const auto n_tasks = static_cast<std::size_t>(sys.num_tasks());
  const auto n_procs = static_cast<std::size_t>(sys.processors());

  std::vector<std::int64_t> head(n_tasks, 0);
  std::vector<Time> pred_completion(n_tasks);  // completion of last subtask

  // Processor k's boundary offset within a slot.
  std::vector<Time> offset(n_procs);
  for (std::size_t k = 0; k < n_procs; ++k) {
    offset[k] = Time::ticks(static_cast<std::int64_t>(k) * kTicksPerSlot /
                            static_cast<std::int64_t>(n_procs));
  }

  std::int64_t remaining = sys.total_subtasks();

  // Walk slot boundaries in global time order: slot n, processors 0..M-1
  // (offsets are nondecreasing in k, so this is chronological).  At each
  // boundary the owning processor is idle by construction (its previous
  // quantum has ended), and picks the single highest-priority ready
  // subtask.
  for (std::int64_t n = 0; n < slot_limit && remaining > 0; ++n) {
    for (std::size_t k = 0; k < n_procs && remaining > 0; ++k) {
      const Time t = Time::slots(n) + offset[k];
      // Find the highest-priority ready subtask at t.
      SubtaskRef best;
      for (std::size_t j = 0; j < n_tasks; ++j) {
        const Task& task = sys.task(static_cast<std::int64_t>(j));
        const std::int64_t h = head[j];
        if (h >= task.num_subtasks()) continue;
        const Subtask& s = task.subtask(h);
        if (Time::slots(s.eligible) > t) continue;
        if (h > 0 && pred_completion[j] > t) continue;
        const SubtaskRef ref{static_cast<std::int32_t>(j),
                             static_cast<std::int32_t>(h)};
        if (!best.valid() || order.higher(ref, best)) best = ref;
      }
      if (!best.valid()) continue;
      const Time c = yields.checked_cost(sys, best);
      sched.place(best, t, c, static_cast<int>(k));
      const auto j = static_cast<std::size_t>(best.task);
      ++head[j];
      pred_completion[j] = t + c;
      --remaining;
    }
  }
  return sched;
}

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

// Every placement (start, cost, processor), the placement order and
// complete() of the simulator's grid mode against the boundary-walk
// oracle.  M = 3, 5, 7 and 24 do not divide 2^20, so their offsets are
// floored; IS systems also get eligibility before release (Eq. (6)).
TEST(Staggered, GridMatchesBoundaryWalkOracle) {
  const int procs[] = {1, 2, 3, 4, 5, 7, 8, 16, 24};
  const Policy policies[] = {Policy::kPd2, Policy::kEpdf, Policy::kPf,
                             Policy::kPd};
  int cases = 0;
  for (const int m : procs) {
    for (int kind = 0; kind < 3; ++kind) {
      const auto seed = static_cast<std::uint64_t>(100 * m + kind);
      GeneratorConfig cfg;
      cfg.processors = m;
      cfg.target_util = Rational(m);
      cfg.horizon = m >= 7 ? 12 : 20;
      cfg.seed = seed;
      TaskSystem sys = generate_periodic(cfg);
      if (kind == 1) {
        sys = advance_eligibility(add_is_jitter(sys, 3, 1, 3, seed), 2, 1,
                                  4, seed + 1);
      } else if (kind == 2) {
        sys = drop_subtasks(sys, 1, 4, seed);
      }
      const FullQuantumYield full;
      const FixedYield fixed(Time::ticks(kTicksPerSlot / 3));
      const BernoulliYield bern_short(seed, 1, 2, kTick, kQuantum - kTick);
      const BernoulliYield bern_late(seed + 7, 3, 4,
                                     Time::ticks(kTicksPerSlot / 2), kQuantum);
      const YieldModel* yields[] = {&full, &fixed, &bern_short, &bern_late};
      for (const Policy policy : policies) {
        for (std::size_t y = 0; y < std::size(yields); ++y) {
          StaggeredOptions opts;
          opts.policy = policy;
          // One run per system stops at a horizon limit mid-schedule.
          if (policy == Policy::kPd && y == 0) opts.horizon_limit = 5;
          const DvqSchedule want = naive_staggered(sys, *yields[y], opts);
          const DvqSchedule got = schedule_staggered(sys, *yields[y], opts);
          ++cases;
          const auto where = ::testing::Message()
                             << "M=" << m << " kind=" << kind << " policy="
                             << to_string(policy) << " yield=" << y
                             << " limit=" << opts.horizon_limit;
          ASSERT_EQ(got.complete(), want.complete()) << where;
          ASSERT_EQ(opts.horizon_limit == 0, want.complete()) << where;
          ASSERT_TRUE(std::equal(got.order_log().begin(),
                                 got.order_log().end(),
                                 want.order_log().begin(),
                                 want.order_log().end()))
              << where;
          for (std::int64_t i = 0; i < sys.total_subtasks(); ++i) {
            const DvqPlacement g = got.flat_placement(i);
            const DvqPlacement w = want.flat_placement(i);
            ASSERT_EQ(g.placed, w.placed) << where << " cell " << i;
            ASSERT_EQ(g.start, w.start) << where << " cell " << i;
            ASSERT_EQ(g.cost, w.cost) << where << " cell " << i;
            ASSERT_EQ(g.proc, w.proc) << where << " cell " << i;
          }
          ASSERT_EQ(got.makespan(), want.makespan()) << where;
          ASSERT_EQ(got.busy_ticks(), want.busy_ticks()) << where;
        }
      }
    }
  }
  EXPECT_EQ(cases, 9 * 3 * 4 * 4);
}

// Grid mode has no observers and no warp: each is refused up front
// rather than silently watching (or skipping) a schedule it cannot see.
TEST(Staggered, GridModeRefusesWarpAndObservers) {
  GeneratorConfig cfg;
  cfg.processors = 2;
  cfg.target_util = Rational(2);
  cfg.horizon = 8;
  const TaskSystem sys = generate_periodic(cfg);
  const FullQuantumYield yields;
  DvqSimulator sim(sys, yields, Policy::kPd2, nullptr,
                   /*staggered_grid=*/true);
  RingBufferSink sink(16);
  MetricsRegistry reg;
  EXPECT_THROW(sim.set_trace_sink(&sink), ContractViolation);
  EXPECT_THROW(sim.attach_metrics(reg), ContractViolation);
  const std::vector<std::int64_t> allocs(
      static_cast<std::size_t>(sys.num_tasks()), 0);
  EXPECT_THROW(sim.warp(1, 1, allocs, 0), ContractViolation);
  // Refusals leave the simulator usable.
  sim.set_trace_sink(nullptr);
  sim.run_until(Time::slots(default_horizon(sys)));
  EXPECT_TRUE(sim.schedule().complete());
}

}  // namespace
}  // namespace pfair
