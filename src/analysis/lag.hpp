// Lag analysis for slot schedules.
//
// The fluid ("proportionate") allocation gives task T exactly wt(T)
// processor time per slot; lag(T, t) = wt(T)*t - allocated(T, [0, t))
// measures how far a discrete schedule has drifted from the fluid one.
// For a synchronous periodic task, a schedule is Pfair in the classical
// sense iff -1 < lag(T, t) < 1 at every slot boundary — scheduling every
// subtask inside its window enforces exactly this.  The lag checker is an
// independent cross-check of the window-based validity checker.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rational.hpp"
#include "sched/schedule.hpp"

namespace pfair {

template <class Stored>
class SplicedSchedule;  // sched/compressed_schedule.hpp
using CycleSchedule = SplicedSchedule<SlotSchedule>;

/// lag(T, t) for one task at a slot boundary, using the task's fluid rate
/// wt(T) from time 0 (meaningful for synchronous periodic tasks).
[[nodiscard]] Rational lag(const TaskSystem& sys, const SlotSchedule& sched,
                           std::int64_t task, std::int64_t t);
[[nodiscard]] Rational lag(const TaskSystem& sys, const CycleSchedule& sched,
                           std::int64_t task, std::int64_t t);

/// Extremes of lag over all tasks and all boundaries in [0, horizon].
struct LagRange {
  Rational min;  ///< most negative (over-served)
  Rational max;  ///< most positive (under-served)
};
[[nodiscard]] LagRange lag_range(const TaskSystem& sys,
                                 const SlotSchedule& sched,
                                 std::int64_t horizon);
[[nodiscard]] LagRange lag_range(const TaskSystem& sys,
                                 const CycleSchedule& sched,
                                 std::int64_t horizon);

/// True iff -1 < lag < 1 everywhere — the classical Pfairness property.
[[nodiscard]] bool is_pfair(const TaskSystem& sys, const SlotSchedule& sched,
                            std::int64_t horizon);
[[nodiscard]] bool is_pfair(const TaskSystem& sys, const CycleSchedule& sched,
                            std::int64_t horizon);

}  // namespace pfair
