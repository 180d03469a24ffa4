// Steady-state cycle detection and fast-forward for the DVQ model —
// the event-driven counterpart of sched/compressed_schedule.hpp.
//
// DVQ decisions happen at arbitrary tick-exact instants, but on a
// zero-phase periodic system with a *periodic* yield model (see
// YieldModel::periodic_costs) the whole event timeline is generated by
// per-task state that repeats with the hyperperiod H: at a slot
// boundary T with no unprocessed event before it, the future is fixed
// by, per task, the head's position inside its job (mod raw e), its
// release anchor and readiness instant relative to T, and the lag
// numerator — plus, per processor, the remaining busy time relative to
// T.  Two equal snapshots at T0 < T1 therefore replay the event
// sequence of [T0, T1) verbatim, shifted by T1 - T0, forever.
//
// Unlike SFQ, a head whose readiness instant is exactly T differs from
// one already in the ready queue (its calendar entry or completion
// hand-off creates a decision event at T), so readiness is kept exact
// for heads not yet ready and clamped only for already-queued ones.
//
// Detection bails out cleanly — `stats().engaged == false`, full run
// returned — for non-fingerprintable systems (IS/GIS, phased), yield
// models without periodic costs (Bernoulli, scripted), observed runs,
// and horizons too short to reach a second hyperperiod boundary.
//
// The snapshot and the DVQ hooks of the shared driver
// (sched/fast_forward.hpp) live in dvq/dvq_scheduler.cpp, next to
// schedule_dvq, which runs through the same driver.
#pragma once

#include <cstdint>

#include "core/assert.hpp"
#include "core/time.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "sched/compressed_schedule.hpp"

namespace pfair {

/// DVQ placements in a SplicedSchedule: synthesized allocations are
/// their base-cycle counterparts shifted whole cycles in ticks (same
/// cost, same processor); an allocation straddles its cycle's end when
/// it completes after it, and the schedule ends at its makespan.
template <>
struct SpliceTraits<DvqSchedule> {
  using Placement = DvqPlacement;
  static constexpr std::int64_t kUnit = kTicksPerSlot;  ///< one slot, in ticks

  static DvqPlacement shifted(const DvqPlacement& base,
                              std::int64_t shift_ticks) {
    PFAIR_REQUIRE(base.placed, "base cycle placement missing");
    DvqPlacement p = base;
    p.start = base.start + Time::ticks(shift_ticks);
    return p;
  }
  static bool straddles(const DvqPlacement& base, std::int64_t cycle_end) {
    return base.completion().raw_ticks() > cycle_end;
  }
  static Time end(const DvqSchedule& s) { return s.makespan(); }
  static Time end(const DvqPlacement& p) { return p.completion(); }
  static void place(DvqSchedule& out, const SubtaskRef& ref,
                    const DvqPlacement& p) {
    out.place(ref, p.start, p.cost, p.proc);
  }
};

/// The cycle-compressed DVQ schedule: the SplicedSchedule surface with
/// makespan() in place of horizon() (see sched/compressed_schedule.hpp).
using DvqCycleSchedule = SplicedSchedule<DvqSchedule>;

/// Runs the DVQ scheduler with steady-state cycle detection (see the
/// header note for when it engages).  Ignores opts.cycle_detect —
/// callers gate on it; observed runs never fast-forward.
[[nodiscard]] DvqCycleSchedule schedule_dvq_cyclic(const TaskSystem& sys,
                                                   const YieldModel& yields,
                                                   const DvqOptions& opts = {});

}  // namespace pfair
