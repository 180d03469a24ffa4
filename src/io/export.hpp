// CSV export of schedules and task systems, for offline analysis and
// plotting (each bench can dump its raw data).
#pragma once

#include <cstdint>
#include <span>

#include "dvq/dvq_schedule.hpp"
#include "io/csv.hpp"
#include "obs/trace.hpp"
#include "sched/schedule.hpp"

namespace pfair {

namespace prof {
struct ProfileSnapshot;  // obs/prof.hpp
}  // namespace prof

/// One row per subtask: task, name, index, window parameters.
[[nodiscard]] CsvWriter export_task_system(const TaskSystem& sys);

/// One row per placed subtask of a slot schedule:
/// task,name,index,slot,proc,deadline,tardiness.
[[nodiscard]] CsvWriter export_slot_schedule(const TaskSystem& sys,
                                             const SlotSchedule& sched);

/// One row per placed subtask of a DVQ schedule, with exact tick values:
/// task,name,index,start_ticks,cost_ticks,proc,deadline,tardiness_ticks.
[[nodiscard]] CsvWriter export_dvq_schedule(const TaskSystem& sys,
                                            const DvqSchedule& sched);

/// Chrome trace-event JSON ("chrome://tracing" / Perfetto "Open legacy
/// trace"): one complete event per placed subtask, processors as
/// threads, 1 slot = 1000 trace microseconds.  Works for both schedule
/// kinds (slot schedules occupy whole quanta).
///
/// The `events` overloads additionally render a captured scheduler
/// trace (e.g. a RingBufferSink snapshot) as instant events — decision
/// boundaries, preemptions, migrations, deadline outcomes — on the
/// processor rows (tid M is the "scheduler" row for processor-less
/// events).  kCompare cuts are skipped: an instant event carries one
/// subtask, and a cut relates two (the last winner and the first denied
/// subtask), so the row would show half of it.
[[nodiscard]] std::string export_chrome_trace(const TaskSystem& sys,
                                              const DvqSchedule& sched);
[[nodiscard]] std::string export_chrome_trace(const TaskSystem& sys,
                                              const SlotSchedule& sched);
[[nodiscard]] std::string export_chrome_trace(
    const TaskSystem& sys, const DvqSchedule& sched,
    std::span<const TraceEvent> events);
[[nodiscard]] std::string export_chrome_trace(
    const TaskSystem& sys, const SlotSchedule& sched,
    std::span<const TraceEvent> events);

/// Extra streams rendered alongside a schedule in one Chrome trace.
struct ChromeTraceExtras {
  /// Captured scheduler trace, rendered as instant events (see above).
  std::span<const TraceEvent> events{};
  /// Events the capturing ring dropped (RingBufferSink::dropped()).
  /// Nonzero renames the schedule process to "... (trace truncated: N
  /// events dropped)" and records the count under otherData, so a
  /// truncated timeline is visibly truncated in Chrome/Perfetto.
  std::uint64_t events_dropped = 0;
  /// Self-profiling spans (obs/prof.hpp), rendered as ph:"X" duration
  /// events in real (wall-clock) microseconds on a second process row —
  /// the schedule timeline above, where the simulator spent its cycles
  /// below.
  const prof::ProfileSnapshot* profile = nullptr;
};

/// The full-fat export: schedule + scheduler trace + profiler spans +
/// truncation metadata.  The overloads above delegate here.
[[nodiscard]] std::string export_chrome_trace(const TaskSystem& sys,
                                              const DvqSchedule& sched,
                                              const ChromeTraceExtras& extras);
[[nodiscard]] std::string export_chrome_trace(const TaskSystem& sys,
                                              const SlotSchedule& sched,
                                              const ChromeTraceExtras& extras);

}  // namespace pfair
