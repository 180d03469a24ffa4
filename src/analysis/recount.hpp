// Offline recount of the scheduler-quality counters (obs/quality.hpp)
// from a finished schedule — an O(schedule) oracle for the incremental
// accounting both simulators perform per decision.
//
// The recount derives every number from the placements alone (plus the
// task system's eligibility times), replaying the decision-instant
// structure the simulator walked: slot boundaries for SFQ, the distinct
// readiness/completion instants for DVQ.  By construction it is
// path-independent, so
//   incremental (fast path) == recount
// is asserted in tests/prof_test.cpp across policies and workloads, and
// `pfairsim --profile` re-verifies it on every run.
//
// Both overloads require a *complete* schedule (every subtask placed) —
// a truncated run's counters depend on where the horizon cut it.
//
// The recount stays an independent oracle of the fast path even though
// it is itself O(placements): every sort key — slot, start, readiness,
// completion — is derived from the placements and `eligible_at`, never
// from simulator order or state.  The sorts are a counting sort by slot
// (SFQ) and a radix sort by tick time (DVQ, core/radix_sort.hpp); they
// change only how fast the keys are ordered, not what is counted.
//
// The recount is also the quality source of explain runs: the reference
// schedulers fill SfqOptions/DvqOptions::quality and the sched.*
// quality metrics from it after the run.  That is why the SFQ overload
// is compiled into pfair_sched and the DVQ one into pfair_dvq.
#pragma once

#include <vector>

#include "dvq/dvq_schedule.hpp"
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
void count_switches(const std::vector<ProcCell>& by_time, QualityCounters& q);
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

}  // namespace pfair
