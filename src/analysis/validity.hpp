// Schedule validity — the three conditions of Sec. 3.3, plus the
// continuous-time analogues for DVQ schedules.
//
// A slot schedule is *valid in slot t* iff (i) every subtask is scheduled
// within [e(T_i), d(T_i)), (ii) no two subtasks of the same task share a
// slot, and (iii) at most M subtasks occupy the slot.  When studying
// tardiness we relax (i) to a bound: scheduled within [e(T_i), d(T_i) +
// kappa).  Predecessor ordering (a subtask never before its predecessor's
// completion) is checked as well — it is implicit in the paper's readiness
// definition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dvq/dvq_schedule.hpp"
#include "sched/schedule.hpp"

namespace pfair {

template <class Stored>
class SplicedSchedule;  // sched/compressed_schedule.hpp
using CycleSchedule = SplicedSchedule<SlotSchedule>;
using DvqCycleSchedule = SplicedSchedule<DvqSchedule>;  // dvq/dvq_cycle.hpp

/// One violation, with a human-readable description.
struct Violation {
  enum class Kind {
    kUnscheduled,       ///< subtask never placed
    kBeforeEligible,    ///< scheduled before e(T_i)
    kDeadlineMiss,      ///< completes after d(T_i) + allowance
    kIntraTaskParallel, ///< two subtasks of one task overlap / share a slot
    kOverloadedSlot,    ///< more than M subtasks in a slot / instant
    kPrecedence,        ///< scheduled before predecessor completion
    kLagBound,          ///< per-task lag left (-1, 1) (online auditor only)
  };
  Kind kind;
  SubtaskRef ref;
  std::string detail;
};

[[nodiscard]] const char* to_string(Violation::Kind k);

/// Result of a validity check.
struct ValidityReport {
  std::vector<Violation> violations;
  [[nodiscard]] bool valid() const { return violations.empty(); }
  [[nodiscard]] std::string str(std::size_t max_items = 8) const;
};

/// Checks a slot (SFQ-model) schedule.  `tardiness_allowance` relaxes the
/// deadline condition: a subtask may complete up to that many slots late.
[[nodiscard]] ValidityReport check_slot_schedule(
    const TaskSystem& sys, const SlotSchedule& sched,
    std::int64_t tardiness_allowance = 0);

/// Checks a DVQ/staggered schedule.  `tardiness_allowance_ticks` relaxes
/// the deadline condition; Theorem 3 corresponds to kQuantum.
[[nodiscard]] ValidityReport check_dvq_schedule(
    const TaskSystem& sys, const DvqSchedule& sched,
    Time tardiness_allowance = Time());

/// Cycle-compressed schedules run through the identical checks, never
/// materialized.  A schedule that `repeats_exactly` and is clean is
/// certified by walking one synthesized cycle: O(prefix + cycle + tail +
/// tasks).  Otherwise the synthesized placements are walked per task
/// (each skipped cycle a shifted run over the stored base cycle), which
/// builds the identical report.
[[nodiscard]] ValidityReport check_slot_schedule(
    const TaskSystem& sys, const CycleSchedule& sched,
    std::int64_t tardiness_allowance = 0);
[[nodiscard]] ValidityReport check_dvq_schedule(
    const TaskSystem& sys, const DvqCycleSchedule& sched,
    Time tardiness_allowance = Time());

}  // namespace pfair
