// Hyperperiod analysis for synchronous periodic systems.
//
// The schedule produced by a deterministic Pfair policy for a synchronous
// periodic system is itself eventually periodic: at multiples of the
// hyperperiod H = lcm of the task periods, the scheduler state (per-task
// window position, availability, lag) can recur, and from the first
// recurrence onward the slot pattern — idle slots included — repeats
// with period H.  Fully utilized systems recur at t = 0 (all lags are
// zero at every multiple of H); under-utilized systems may need a
// transient prefix before the idle pattern locks in.  This gives an
// exact, finite verification horizon: validity over one established
// cycle implies validity forever.  `check_schedule_periodicity` verifies
// the repetition property on a concrete schedule using the same
// canonical state fingerprints that drive online cycle detection.
#pragma once

#include <cstdint>

#include "sched/schedule.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

/// lcm of the task periods: fingerprint_period (sched/state_hash.hpp),
/// which divides before it multiplies, so no intermediate overflows.
/// Requires a non-empty system of zero-phase periodic tasks; throws if
/// the lcm exceeds a practical bound (2^40 slots).
[[nodiscard]] std::int64_t hyperperiod(const TaskSystem& sys);

/// Result of the periodicity check.
struct PeriodicityReport {
  bool applicable = false;     ///< zero-phase periodic, horizon covers 2H
  bool periodic = false;       ///< slot pattern of period H confirmed
  bool fully_utilized = false; ///< util == M (recurrence forced at t = 0)
  std::int64_t hyper = 0;      ///< 0 unless fingerprintable
  std::int64_t prefix_slots = 0;  ///< first boundary t0 where state recurs
  std::int64_t periods_compared = 0;
};

/// Verifies that a (complete, valid) schedule of a zero-phase synchronous
/// periodic system repeats with the hyperperiod: scanning state
/// fingerprints at multiples of H, it finds the first boundary t0 with
/// fp(t0) == fp(t0 + H) and then confirms explicitly that for every
/// subtask placed in [t0, t0 + H) the successor-by-allocation subtask is
/// placed exactly H slots later.  Idle slots are part of the repeating
/// pattern, so utilization < M is supported; fully utilized systems are
/// additionally cross-checked with the direct [0, H) vs [H, 2H) slot-set
/// comparison.  Requires the schedule to cover t0 + 2H slots.
[[nodiscard]] PeriodicityReport check_schedule_periodicity(
    const TaskSystem& sys, const SlotSchedule& sched);

}  // namespace pfair
