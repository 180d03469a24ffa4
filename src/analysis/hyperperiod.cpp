#include "analysis/hyperperiod.hpp"

#include "core/rational.hpp"
#include "sched/state_hash.hpp"

namespace pfair {

std::int64_t hyperperiod(const TaskSystem& sys) {
  const std::int64_t h = fingerprint_period(sys);
  PFAIR_REQUIRE(h != 0,
                "hyperperiod needs a non-empty zero-phase periodic system "
                "whose periods' lcm is at most 2^40 slots");
  return h;
}

namespace {

// Cross-check used for fully utilized systems when the state recurs at
// t = 0 — the original, fingerprint-free formulation: the slot set in
// [H, 2H) must equal the slot set in [0, H) shifted by H.
bool slot_sets_repeat(const TaskSystem& sys, const SlotSchedule& sched,
                      std::int64_t hyper) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    std::vector<std::int64_t> first, second;
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SlotPlacement& p = sched.placement(SubtaskRef{k, s});
      if (!p.scheduled()) continue;  // beyond the covered horizon
      if (p.slot < hyper) {
        first.push_back(p.slot);
      } else if (p.slot < 2 * hyper) {
        second.push_back(p.slot - hyper);
      }
    }
    if (first != second) return false;
  }
  return true;
}

// Explicit repetition proof from a state match at t0: every subtask
// placed in [t0, t0 + H) must have its successor-by-allocation (seq + A
// where A = e_raw * H / p_raw is the fluid share per hyperperiod) placed
// exactly H slots later.  Combined with strict per-task slot ordering
// (ScheduleStateScanner::ok), this pins the whole window's repetition.
bool window_repeats(const TaskSystem& sys, const SlotSchedule& sched,
                    std::int64_t t0, std::int64_t hyper) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    const std::int64_t per_cycle =
        task.weight().e * (hyper / task.weight().p);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SlotPlacement& p = sched.placement(SubtaskRef{k, s});
      // Unscheduled subtasks sit beyond the covered horizon — past the
      // window under test (the scanner's ok() already pinned them to a
      // contiguous tail).
      if (!p.scheduled()) continue;
      if (p.slot < t0 || p.slot >= t0 + hyper) continue;
      const std::int64_t succ = s + per_cycle;
      if (succ >= task.num_subtasks()) return false;
      const SlotPlacement& q =
          sched.placement(SubtaskRef{k, static_cast<std::int32_t>(succ)});
      if (!q.scheduled() || q.slot != p.slot + hyper) return false;
    }
  }
  return true;
}

}  // namespace

PeriodicityReport check_schedule_periodicity(const TaskSystem& sys,
                                             const SlotSchedule& sched) {
  PeriodicityReport rep;
  rep.fully_utilized =
      sys.total_utilization() == Rational(sys.processors());

  // Applicability: exact state fingerprints must exist (zero-phase
  // periodic tasks) and the schedule must cover at least two
  // hyperperiods so one candidate recurrence can be confirmed.
  if (!fingerprintable(sys)) return rep;
  rep.hyper = hyperperiod(sys);
  if (sched.horizon() < 2 * rep.hyper) return rep;
  ScheduleStateScanner scan(sys, sched);
  if (!scan.ok()) return rep;
  rep.applicable = true;

  // Scan boundaries t0 = 0, H, 2H, ... for the first state recurrence
  // fp(t0) == fp(t0 + H); idle slots carry no state, so matching records
  // make the whole slot pattern — idle included — repeat.
  StateFingerprint prev = scan.at(0);
  for (std::int64_t t0 = 0; t0 + 2 * rep.hyper <= sched.horizon();
       t0 += rep.hyper) {
    StateFingerprint next = scan.at(t0 + rep.hyper);
    const bool match = prev.same_state(next);
    prev = std::move(next);
    if (!match) continue;
    rep.prefix_slots = t0;
    rep.periodic = window_repeats(sys, sched, t0, rep.hyper);
    if (rep.periodic && rep.fully_utilized && t0 == 0) {
      // Fully utilized systems recur from the start; the historical
      // slot-set comparison must agree with the fingerprint path.
      rep.periodic = slot_sets_repeat(sys, sched, rep.hyper);
    }
    rep.periods_compared = 2;
    return rep;
  }
  return rep;
}

}  // namespace pfair
