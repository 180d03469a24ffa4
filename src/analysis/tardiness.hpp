// Tardiness — Eq. (7): tardiness(T_i, S) = max(0, completion - d(T_i)).
//
// The whole-schedule summaries walk each task once in seq order, zipping
// its SubtaskCursor with the schedule's placement walk (no per-subtask
// division); the single-subtask functions are the random-access form.
#pragma once

#include <cstdint>
#include <vector>

#include "dvq/dvq_schedule.hpp"
#include "obs/metrics.hpp"
#include "sched/schedule.hpp"

namespace pfair {

template <class Stored>
class SplicedSchedule;  // sched/compressed_schedule.hpp
using CycleSchedule = SplicedSchedule<SlotSchedule>;
using DvqCycleSchedule = SplicedSchedule<DvqSchedule>;  // dvq/dvq_cycle.hpp

/// Tardiness summary of one run.  Slot schedules report in whole slots;
/// DVQ schedules in ticks (one quantum = kTicksPerSlot ticks).
struct TardinessSummary {
  std::int64_t max_ticks = 0;       ///< max subtask tardiness
  std::int64_t total_ticks = 0;     ///< sum over subtasks
  std::int64_t late_subtasks = 0;   ///< subtasks with tardiness > 0
  std::int64_t total_subtasks = 0;
  std::int64_t unscheduled = 0;     ///< never placed (horizon hit)
  SubtaskRef worst;                 ///< a subtask attaining max_ticks

  [[nodiscard]] bool none_late() const {
    return late_subtasks == 0 && unscheduled == 0;
  }
  /// max tardiness in quanta, rounded up (for "at most one quantum").
  [[nodiscard]] std::int64_t max_quanta_ceil() const {
    return (max_ticks + kTicksPerSlot - 1) / kTicksPerSlot;
  }
  [[nodiscard]] double max_quanta() const {
    return static_cast<double>(max_ticks) /
           static_cast<double>(kTicksPerSlot);
  }
};

/// Tardiness of one subtask in a slot schedule, in slots (completion is
/// slot + 1).  Requires the subtask to be scheduled.
[[nodiscard]] std::int64_t subtask_tardiness(const TaskSystem& sys,
                                             const SlotSchedule& sched,
                                             const SubtaskRef& ref);

/// Tardiness of one subtask in a DVQ schedule, in ticks.
[[nodiscard]] std::int64_t subtask_tardiness_ticks(const TaskSystem& sys,
                                                   const DvqSchedule& sched,
                                                   const SubtaskRef& ref);

/// Whole-schedule summaries.
[[nodiscard]] TardinessSummary measure_tardiness(const TaskSystem& sys,
                                                 const SlotSchedule& sched);
[[nodiscard]] TardinessSummary measure_tardiness(const TaskSystem& sys,
                                                 const DvqSchedule& sched);

/// Per-subtask tardiness values in ticks (slot schedules are scaled), for
/// distribution plots.  Unscheduled subtasks are skipped.
[[nodiscard]] std::vector<std::int64_t> tardiness_values_ticks(
    const TaskSystem& sys, const SlotSchedule& sched);
[[nodiscard]] std::vector<std::int64_t> tardiness_values_ticks(
    const TaskSystem& sys, const DvqSchedule& sched);

/// Records the schedule's per-task tardiness into `reg`: one
/// "task.<name>.tardiness_ticks" histogram per task, and gauges
/// "sched.tardiness_max_ticks" / "sched.unscheduled_subtasks".
/// Unscheduled subtasks are counted, not histogrammed.  The overall
/// "sched.tardiness_ticks" histogram is not touched: the scheduler's
/// metrics probe (obs/probe.hpp) fills it during a metered run, once
/// per placed subtask.
void record_tardiness_metrics(const TaskSystem& sys,
                              const SlotSchedule& sched,
                              MetricsRegistry& reg);
void record_tardiness_metrics(const TaskSystem& sys,
                              const DvqSchedule& sched,
                              MetricsRegistry& reg);

/// Cycle-compressed schedules run through the identical measurements —
/// synthesized placements are walked per task (each skipped cycle a
/// shifted run over the stored base cycle), never materialized.  When
/// the schedule `repeats_exactly`, measure_tardiness walks one
/// synthesized cycle and adds its counts for the others: O(prefix +
/// cycle + tail + tasks), the same summary, `worst` included.
[[nodiscard]] std::int64_t subtask_tardiness(const TaskSystem& sys,
                                             const CycleSchedule& sched,
                                             const SubtaskRef& ref);
[[nodiscard]] std::int64_t subtask_tardiness_ticks(
    const TaskSystem& sys, const DvqCycleSchedule& sched,
    const SubtaskRef& ref);
[[nodiscard]] TardinessSummary measure_tardiness(const TaskSystem& sys,
                                                 const CycleSchedule& sched);
[[nodiscard]] TardinessSummary measure_tardiness(
    const TaskSystem& sys, const DvqCycleSchedule& sched);
[[nodiscard]] std::vector<std::int64_t> tardiness_values_ticks(
    const TaskSystem& sys, const CycleSchedule& sched);
[[nodiscard]] std::vector<std::int64_t> tardiness_values_ticks(
    const TaskSystem& sys, const DvqCycleSchedule& sched);

}  // namespace pfair
