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
  int proc;
  std::int64_t at;
  std::int32_t task;
};
/// Counts context switches from per-processor placement order (sorts
/// `cells`).
void count_switches(std::vector<ProcCell>& cells, QualityCounters& q);
}  // namespace detail

/// Recounts quality for an SFQ (slot-synchronous) schedule:
/// decision_points = horizon (one decision per slot), idle =
/// horizon x M - placements, preemptions from consecutive-placement
/// gaps with a ready successor, switches from per-processor placement
/// order.
[[nodiscard]] QualityCounters recount_quality(const TaskSystem& sys,
                                              const SlotSchedule& sched);

/// Recounts quality for a DVQ (event-driven) schedule by sweeping the
/// distinct decision instants — every subtask-readiness instant plus
/// every completion instant up to the last start.
[[nodiscard]] QualityCounters recount_quality(const TaskSystem& sys,
                                              const DvqSchedule& sched);

}  // namespace pfair
