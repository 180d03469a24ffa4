#include "analysis/validity.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "core/radix_sort.hpp"
#include "dvq/dvq_cycle.hpp"
#include "sched/compressed_schedule.hpp"

namespace pfair {

const char* to_string(Violation::Kind k) {
  switch (k) {
    case Violation::Kind::kUnscheduled:
      return "unscheduled";
    case Violation::Kind::kBeforeEligible:
      return "before-eligible";
    case Violation::Kind::kDeadlineMiss:
      return "deadline-miss";
    case Violation::Kind::kIntraTaskParallel:
      return "intra-task-parallelism";
    case Violation::Kind::kOverloadedSlot:
      return "overloaded-slot";
    case Violation::Kind::kPrecedence:
      return "precedence";
    case Violation::Kind::kLagBound:
      return "lag-bound";
  }
  return "?";
}

std::string ValidityReport::str(std::size_t max_items) const {
  if (valid()) return "valid";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (std::size_t i = 0; i < violations.size() && i < max_items; ++i) {
    const Violation& v = violations[i];
    os << "\n  [" << to_string(v.kind) << "] " << v.ref << ": " << v.detail;
  }
  if (violations.size() > max_items) os << "\n  ...";
  return os.str();
}

namespace {

/// Appends one violation whose detail streams `parts`.  Out of line and
/// cold, so the per-subtask loops below stay small enough to inline.
template <class... Parts>
[[gnu::noinline, gnu::cold]] void add(ValidityReport& rep,
                                      Violation::Kind kind, SubtaskRef ref,
                                      const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  rep.violations.push_back(Violation{kind, ref, os.str()});
}

void report_overload(ValidityReport& rep, std::int64_t slot,
                     std::int64_t load, std::int64_t procs) {
  if (load <= procs) return;
  add(rep, Violation::Kind::kOverloadedSlot, SubtaskRef{}, "slot ", slot,
      " holds ", load, " subtasks on ", procs, " processors");
}

/// Per-slot loads for condition (iii), reported in ascending slot order.
/// Counted in a dense per-slot vector when the horizon is at most 4x the
/// subtask count; otherwise (a hand-built or replayed schedule with a
/// far-out slot) the placed slots are listed, sorted and run-length
/// counted, so the check never allocates O(horizon).
class SlotLoads {
 public:
  SlotLoads(std::int64_t horizon, std::int64_t subtasks)
      : dense_(horizon <= 4 * subtasks) {
    if (dense_) load_.assign(static_cast<std::size_t>(horizon), 0);
  }

  void add(std::int64_t slot) {
    if (!dense_) {
      load_.push_back(slot);
      return;
    }
    // Every placement lies below the horizon (1 + latest occupied slot).
    PFAIR_REQUIRE(slot >= 0 && slot < static_cast<std::int64_t>(load_.size()),
                  "slot " << slot << " outside the schedule's horizon");
    ++load_[static_cast<std::size_t>(slot)];
  }

  void report(ValidityReport& rep, std::int64_t procs) {
    if (dense_) {
      for (std::size_t t = 0; t < load_.size(); ++t) {
        report_overload(rep, static_cast<std::int64_t>(t), load_[t], procs);
      }
      return;
    }
    std::sort(load_.begin(), load_.end());
    for (std::size_t i = 0; i < load_.size();) {
      std::size_t j = i;
      while (j < load_.size() && load_[j] == load_[i]) ++j;
      report_overload(rep, load_[i], static_cast<std::int64_t>(j - i), procs);
      i = j;
    }
  }

 private:
  bool dense_;
  std::vector<std::int64_t> load_;  // dense: load per slot; else: slots
};

// Both checkers zip each task's subtask cursor with the schedule's
// per-task placement walk — templating over the schedule type lets
// cycle-compressed schedules run the identical checks, their skipped
// cycles walked as shifted runs of the stored base cycle.
template <class Sched>
ValidityReport check_slot_impl(const TaskSystem& sys, const Sched& sched,
                               std::int64_t tardiness_allowance) {
  ValidityReport rep;
  SlotLoads loads(sched.horizon(), sys.total_subtasks());

  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    SubtaskCursor subs(sys.task(k));
    std::int64_t prev_slot = -1;
    sched.walk_task(k, [&](std::int32_t s, const SlotPlacement& p) {
      const SubtaskRef ref{k, s};
      const Subtask sub = subs.next();
      if (!p.scheduled()) {
        add(rep, Violation::Kind::kUnscheduled, ref,
            "never placed (horizon reached?)");
        return;
      }
      loads.add(p.slot);
      if (p.slot < sub.eligible) {
        add(rep, Violation::Kind::kBeforeEligible, ref, "slot ", p.slot,
            " < e = ", sub.eligible);
      }
      // Completion in the SFQ model is slot + 1.
      if (p.slot + 1 > sub.deadline + tardiness_allowance) {
        add(rep, Violation::Kind::kDeadlineMiss, ref, "completes at ",
            p.slot + 1, " > d = ", sub.deadline, " + allowance ",
            tardiness_allowance);
      }
      if (s > 0 && p.slot == prev_slot) {
        add(rep, Violation::Kind::kIntraTaskParallel, ref, "shares slot ",
            p.slot, " with its predecessor");
      } else if (s > 0 && p.slot < prev_slot) {
        add(rep, Violation::Kind::kPrecedence, ref, "slot ", p.slot,
            " precedes predecessor slot ", prev_slot);
      }
      prev_slot = p.slot;
    });
  }

  loads.report(rep, sys.processors());
  return rep;
}

/// One allocation on one processor, for the DVQ overlap check.
struct Busy {
  Time start, end;
  SubtaskRef ref;
};

/// The DVQ overlap check's per-processor lanes, kept per thread across
/// calls: lane p is busy[first[p], first[p + 1]).  Lanes allocated and
/// freed per call (~24 B per placement, megabytes on long schedules) are
/// handed back to the system by the allocator and page-faulted in again
/// by the next call, at a cost that varies from run to run with the
/// allocator's trim state.  Sized exactly, the kept buffer holds the
/// largest schedule this thread has checked.
struct BusyLanes {
  std::vector<Busy> busy;
  std::vector<std::size_t> first;
  std::vector<Busy> scratch;  // radix-sort buffer, one lane long
};

BusyLanes& busy_lanes() {
  thread_local BusyLanes lanes;
  return lanes;
}

template <class Sched>
ValidityReport check_dvq_impl(const TaskSystem& sys, const Sched& sched,
                              Time tardiness_allowance) {
  ValidityReport rep;
  const auto procs = static_cast<std::size_t>(sys.processors());
  const auto on_proc = [procs](const DvqPlacement& p) {
    return p.placed && p.proc >= 0 && static_cast<std::size_t>(p.proc) < procs;
  };

  // Per-processor occupancy for overlap checking: this pass counts each
  // lane's allocations, the next one fills the lanes.
  BusyLanes& lanes = busy_lanes();
  std::vector<std::size_t>& first = lanes.first;
  first.assign(procs + 1, 0);

  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    SubtaskCursor subs(sys.task(k));
    Time prev_completion;
    bool has_prev = false;
    sched.walk_task(k, [&](std::int32_t s, const DvqPlacement& p) {
      const SubtaskRef ref{k, s};
      const Subtask sub = subs.next();
      if (!p.placed) {
        add(rep, Violation::Kind::kUnscheduled, ref,
            "never placed (horizon reached?)");
        return;
      }
      if (p.start < Time::slots(sub.eligible)) {
        add(rep, Violation::Kind::kBeforeEligible, ref, "starts at ",
            p.start, " < e = ", sub.eligible);
      }
      if (p.completion() > Time::slots(sub.deadline) + tardiness_allowance) {
        add(rep, Violation::Kind::kDeadlineMiss, ref, "completes at ",
            p.completion(), " > d = ", sub.deadline, " + allowance ",
            tardiness_allowance);
      }
      if (has_prev && p.start < prev_completion) {
        // Overlapping execution of one task = illegal parallelism; a
        // non-overlapping but out-of-order start cannot happen with
        // sequence-ordered placements, so report as parallelism.
        add(rep, Violation::Kind::kIntraTaskParallel, ref, "starts at ",
            p.start, " before predecessor completes at ", prev_completion);
      }
      prev_completion = p.completion();
      has_prev = true;
      if (on_proc(p)) ++first[static_cast<std::size_t>(p.proc) + 1];
    });
  }
  for (std::size_t q = 0; q < procs; ++q) first[q + 1] += first[q];

  // Each lane in subtask order.
  std::vector<Busy>& busy = lanes.busy;
  busy.resize(first[procs]);
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    sched.walk_task(k, [&](std::int32_t s, const DvqPlacement& p) {
      if (on_proc(p)) {
        busy[next[static_cast<std::size_t>(p.proc)]++] =
            Busy{p.start, p.completion(), SubtaskRef{k, s}};
      }
    });
  }

  // No two allocations may overlap on one processor ("overloaded"
  // here means a processor double-booked at some instant).  Equal starts
  // break by subtask, so the report order is deterministic (the radix
  // sort is stable and lanes are filled in subtask order).
  for (std::size_t q = 0; q < procs; ++q) {
    const std::span<Busy> lane(busy.data() + first[q], first[q + 1] - first[q]);
    sort_by_key<Busy>(
        lane, lanes.scratch, [](const Busy& b) { return b.start.raw_ticks(); },
        [](const Busy& a, const Busy& b) {
          return a.start != b.start ? a.start < b.start : a.ref < b.ref;
        });
    for (std::size_t i = 1; i < lane.size(); ++i) {
      if (lane[i].start < lane[i - 1].end) {
        add(rep, Violation::Kind::kOverloadedSlot, lane[i].ref, "overlaps ",
            lane[i - 1].ref, " on processor (starts ", lane[i].start,
            " before ", lane[i - 1].end, ")");
      }
    }
  }
  return rep;
}

}  // namespace

ValidityReport check_slot_schedule(const TaskSystem& sys,
                                   const SlotSchedule& sched,
                                   std::int64_t tardiness_allowance) {
  return check_slot_impl(sys, sched, tardiness_allowance);
}

ValidityReport check_slot_schedule(const TaskSystem& sys,
                                   const CycleSchedule& sched,
                                   std::int64_t tardiness_allowance) {
  return check_slot_impl(sys, sched, tardiness_allowance);
}

ValidityReport check_dvq_schedule(const TaskSystem& sys,
                                  const DvqSchedule& sched,
                                  Time tardiness_allowance) {
  return check_dvq_impl(sys, sched, tardiness_allowance);
}

ValidityReport check_dvq_schedule(const TaskSystem& sys,
                                  const DvqCycleSchedule& sched,
                                  Time tardiness_allowance) {
  return check_dvq_impl(sys, sched, tardiness_allowance);
}

}  // namespace pfair
