// Offline recount of the scheduler-quality counters (obs/quality.hpp)
// from a finished schedule, in O(schedule) — the one producer of
// quality counts.  Every scheduler entry point hands its finished run
// to add_recount (below), which fills SfqOptions/DvqOptions::quality
// and the sched.preemptions / .migrations / .idle_quanta metrics; no
// simulator counts quality per decision.
//
// The recount derives every number from the placements alone (plus the
// task system's eligibility times), replaying the decision-instant
// structure the simulator walked: slot boundaries for SFQ, the distinct
// readiness/completion instants for DVQ.  By construction it is
// path-independent.  Its independent check is the reference
// schedulers' explain stream: tests/prof_test.cpp counts all five
// fields from those events and asserts they equal the recount, across
// policies and workloads.
//
// Both overloads require a *complete* schedule (every subtask placed) —
// a truncated run's counters depend on where the horizon cut it, so a
// truncated run reports none.
//
// Every sort key — slot, start, readiness, completion — is derived from
// the placements and the tasks' eligibility times (one SubtaskCursor
// walk per task), never from simulator order or state.  The sorts are a
// counting sort by slot (SFQ) and a radix sort by tick time (DVQ,
// core/radix_sort.hpp); they change only how fast the keys are ordered,
// not what is counted.  A DVQ schedule whose order log
// (dvq/dvq_schedule.hpp) checks out — every placement named once,
// starts nondecreasing, no processor double-booked — skips the sorts:
// the log supplies the start order, the values still come from the
// table.
//
// The SFQ overload is compiled into pfair_sched and the DVQ one into
// pfair_dvq, so each model's schedulers can call add_recount.
#pragma once

#include <span>
#include <vector>

#include "dvq/dvq_schedule.hpp"
#include "obs/probe.hpp"
#include "obs/prof.hpp"
#include "obs/quality.hpp"
#include "sched/schedule.hpp"

namespace pfair {

namespace detail {
/// One placement on a processor (for the context-switch count).
struct ProcCell {
  std::int64_t at;
  std::int32_t proc;
  std::int32_t task;
};
/// Total order on cells, time first — the comparison-sort branch of
/// sort_by_key (core/radix_sort.hpp) for a radix sort keyed on `at`.
[[nodiscard]] inline bool cell_before(const ProcCell& a, const ProcCell& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.proc != b.proc) return a.proc < b.proc;
  return a.task < b.task;
}
/// Counts context switches from cells sorted by time: one sweep that
/// remembers each processor's last occupant (idle gaps do not reset
/// it), so every change of occupant on a processor is one switch.
void count_switches(std::span<const ProcCell> by_time, QualityCounters& q);
}  // namespace detail

/// Recounts quality for an SFQ (slot-synchronous) schedule:
/// decision_points = horizon (one decision per slot), idle =
/// horizon x M - placements, preemptions from consecutive-placement
/// gaps with a ready successor, switches from per-processor placement
/// order.  Placements are ordered by a counting sort over the slots
/// when the horizon is at most 4x the placement count, by a comparison
/// sort otherwise (so a far-out slot never costs O(horizon) memory).
[[nodiscard]] QualityCounters recount_quality(const TaskSystem& sys,
                                              const SlotSchedule& sched);

/// Recounts quality for a DVQ (event-driven) schedule by sweeping the
/// distinct decision instants — every subtask-readiness instant plus
/// every completion instant up to the last start.
[[nodiscard]] QualityCounters recount_quality(const TaskSystem& sys,
                                              const DvqSchedule& sched);

/// Adds the recount of a finished run's schedule to `*quality` and to
/// `metrics`' sched.preemptions / .migrations / .idle_quanta counters
/// (either may be null).  A truncated run (incomplete schedule) adds
/// nothing.  Each scheduler entry point calls this once, after its run.
template <class Schedule>
void add_recount(const TaskSystem& sys, const Schedule& sched,
                 QualityCounters* quality, MetricsRegistry* metrics) {
  if ((quality == nullptr && metrics == nullptr) || !sched.complete()) {
    return;
  }
  PFAIR_PROF_SPAN(kAnalysis);
  const QualityCounters q = recount_quality(sys, sched);
  if (quality != nullptr) *quality += q;
  if (metrics != nullptr) {
    metrics->counter(sched_metrics::kPreemptions).add(q.preemptions);
    metrics->counter(sched_metrics::kMigrations).add(q.migrations);
    metrics->counter(sched_metrics::kIdleQuanta).add(q.idle_slots);
  }
}

}  // namespace pfair
