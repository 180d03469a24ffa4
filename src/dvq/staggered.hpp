// The staggered quantum model (Holman & Anderson [11], Sec. 1).
//
// Quanta are still fixed-size and periodic on every processor, but
// processor k's quantum boundaries are offset by k/M of a slot, so the M
// scheduling decisions per slot are spread uniformly in time instead of
// happening simultaneously (their motivation: bus contention on SMPs).
// A subtask that yields early leaves its processor idle until that
// processor's next boundary — staggering alone is NOT work-conserving.
//
// Staggered scheduling is a special case of the DVQ model (desynchronized,
// quanta of size exactly 1), so Theorem 3 applies: tardiness under PD2 is
// at most one quantum.  `bench_staggered` confirms this and measures the
// decision-concurrency reduction.  It runs on DvqSimulator's event loop
// under a per-processor boundary grid (dvq/dvq_simulator.hpp).
#pragma once

#include "dvq/dvq_schedule.hpp"
#include "dvq/yield.hpp"
#include "sched/priority.hpp"

namespace pfair {

struct StaggeredOptions {
  Policy policy = Policy::kPd2;
  std::int64_t horizon_limit = 0;  ///< 0 = automatic
};

/// Runs the staggered-model scheduler.  Processor k makes decisions at
/// times n + floor(k * 2^20 / M) ticks, n = 0, 1, 2, ...; a chosen subtask
/// executes for c(T_i) <= 1 and the processor then idles until its next
/// own boundary.
[[nodiscard]] DvqSchedule schedule_staggered(const TaskSystem& sys,
                                             const YieldModel& yields,
                                             const StaggeredOptions& opts = {});

}  // namespace pfair
