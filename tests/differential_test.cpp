// Differential tests: fast implementations cross-checked against naive
// brute-force re-implementations on randomized inputs.
#include <gtest/gtest.h>

#include "analysis/lag.hpp"
#include "core/rng.hpp"
#include "sched/sfq_scheduler.hpp"
#include "tasks/group_deadline.hpp"
#include "tasks/windows.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

TEST(Differential, LagRangeMatchesPointwiseLag) {
  // lag_range uses an incremental recurrence; lag() recounts from
  // scratch.  They must agree at every boundary.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 2;
    cfg.target_util = Rational(2);
    cfg.horizon = 14;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const SlotSchedule sched = schedule_sfq(sys);
    Rational lo, hi;
    bool first = true;
    for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
      for (std::int64_t t = 0; t <= cfg.horizon; ++t) {
        const Rational l = lag(sys, sched, k, t);
        if (first || l < lo) lo = l;
        if (first || l > hi) hi = l;
        first = false;
      }
    }
    const LagRange r = lag_range(sys, sched, cfg.horizon);
    EXPECT_EQ(r.min, lo) << "seed " << seed;
    EXPECT_EQ(r.max, hi) << "seed " << seed;
  }
}

TEST(Differential, WindowFormulasAgainstFluidDefinition) {
  // r(T_i) is the last boundary t with fluid allocation w*t <= i-1, and
  // d(T_i) the first boundary with w*t >= i — re-derive both from the
  // fluid curve directly.
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t p = rng.uniform(2, 30);
    const std::int64_t e = rng.uniform(1, p);
    const Weight w(e, p);
    const std::int64_t i = rng.uniform(1, 3 * p);
    const Rational wt = w.value();
    // Brute force over boundaries.
    std::int64_t r = 0;
    while (wt * Rational(r + 1) <= Rational(i - 1)) ++r;
    std::int64_t d = 0;
    while (wt * Rational(d) < Rational(i)) ++d;
    EXPECT_EQ(pseudo_release(w, i), r) << w.str() << " i=" << i;
    EXPECT_EQ(pseudo_deadline(w, i), d) << w.str() << " i=" << i;
  }
}

TEST(Differential, GroupDeadlineAgainstCascadeSimulation) {
  // Simulate the cascade directly: starting from T_i forced to its last
  // slot, each successor whose window loses its first slot is forced
  // onward; the group deadline is where the chain stops needing slots.
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const std::int64_t p = rng.uniform(2, 20);
    const std::int64_t e = rng.uniform((p + 1) / 2, p);  // heavy
    const Weight w(e, p);
    const std::int64_t i = rng.uniform(1, 2 * p);
    // Walk: subtask j occupies slot d(j)-1; successor j+1 is forced iff
    // its window minus that slot has length < 2... the chain ends after
    // the first j with b=0 (windows disjoint) or |w(j+1)| >= 3 (slack).
    std::int64_t j = i;
    while (b_bit(w, j) && window_length(w, j + 1) < 3) ++j;
    EXPECT_EQ(group_deadline(w, i), pseudo_deadline(w, j))
        << w.str() << " i=" << i;
  }
}

TEST(Differential, SubtasksBeforeAgainstLinearScan) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const std::int64_t p = rng.uniform(1, 24);
    const std::int64_t e = rng.uniform(1, p);
    const Weight w(e, p);
    const std::int64_t h = rng.uniform(0, 60);
    std::int64_t count = 0;
    for (std::int64_t i = 1; pseudo_release(w, i) < h; ++i) ++count;
    EXPECT_EQ(subtasks_before(w, h), count)
        << w.str() << " horizon=" << h;
  }
}

}  // namespace
}  // namespace pfair
