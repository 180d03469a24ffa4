#include "analysis/validity.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>

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

/// Per-slot loads for condition (iii), reported in ascending slot order,
/// over the slots [0, lo_end) and [hi_begin, hi_end) — the whole
/// horizon, or a compressed schedule's prefix plus first synthesized
/// cycle and its tail.  Counted in a dense per-slot vector when those
/// span at most 4x the subtask count; otherwise (a hand-built or
/// replayed schedule with a far-out slot) the placed slots are listed,
/// sorted and run-length counted, so the check never allocates
/// O(horizon).
class SlotLoads {
 public:
  SlotLoads(std::int64_t horizon, std::int64_t subtasks)
      : SlotLoads(horizon, horizon, horizon, subtasks) {}
  SlotLoads(std::int64_t lo_end, std::int64_t hi_begin, std::int64_t hi_end,
            std::int64_t subtasks)
      : lo_end_(lo_end),
        gap_(hi_begin - lo_end),
        dense_(hi_end - gap_ <= 4 * subtasks) {
    if (dense_) load_.assign(static_cast<std::size_t>(hi_end - gap_), 0);
  }

  void add(std::int64_t slot) {
    if (!dense_) {
      load_.push_back(slot);
      return;
    }
    // Every placement lies below the horizon (1 + latest occupied slot).
    const std::int64_t i = slot < lo_end_ ? slot : slot - gap_;
    PFAIR_REQUIRE(i >= 0 && i < static_cast<std::int64_t>(load_.size()) &&
                      (slot < lo_end_ || i >= lo_end_),
                  "slot " << slot << " outside the schedule's horizon");
    ++load_[static_cast<std::size_t>(i)];
  }

  void report(ValidityReport& rep, std::int64_t procs) {
    if (dense_) {
      for (std::size_t i = 0; i < load_.size(); ++i) {
        const auto t = static_cast<std::int64_t>(i);
        report_overload(rep, t < lo_end_ ? t : t + gap_, load_[i], procs);
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
  std::int64_t lo_end_;
  std::int64_t gap_;  // slots [lo_end, lo_end + gap) are not counted
  bool dense_;
  std::vector<std::int64_t> load_;  // dense: load per slot; else: slots
};

/// Conditions (i) and (ii) plus predecessor order for one task of a slot
/// schedule, fed its placements in seq order — the one definition behind
/// the full walk and the once-per-cycle pass below.
class SlotTaskCheck {
 public:
  SlotTaskCheck(const TaskSystem& sys, std::int32_t k, std::int64_t allowance)
      : subs_(sys.task(k)), k_(k), allowance_(allowance) {}

  /// Checks seq `s` placed at `p`; returns whether it is placed at all.
  bool visit(ValidityReport& rep, std::int32_t s, const SlotPlacement& p) {
    const SubtaskRef ref{k_, s};
    const Subtask sub = subs_.next();
    if (!p.scheduled()) {
      add(rep, Violation::Kind::kUnscheduled, ref,
          "never placed (horizon reached?)");
      return false;
    }
    if (p.slot < sub.eligible) {
      add(rep, Violation::Kind::kBeforeEligible, ref, "slot ", p.slot,
          " < e = ", sub.eligible);
    }
    // Completion in the SFQ model is slot + 1.
    if (p.slot + 1 > sub.deadline + allowance_) {
      add(rep, Violation::Kind::kDeadlineMiss, ref, "completes at ",
          p.slot + 1, " > d = ", sub.deadline, " + allowance ", allowance_);
    }
    if (s > 0 && p.slot == prev_slot_) {
      add(rep, Violation::Kind::kIntraTaskParallel, ref, "shares slot ",
          p.slot, " with its predecessor");
    } else if (s > 0 && p.slot < prev_slot_) {
      add(rep, Violation::Kind::kPrecedence, ref, "slot ", p.slot,
          " precedes predecessor slot ", prev_slot_);
    }
    prev_slot_ = p.slot;
    return true;
  }
  /// Steps over `count` seqs, the last of them placed at `last`.
  void skip(std::int64_t count, const SlotPlacement& last) {
    subs_.skip(count);
    prev_slot_ = last.slot;
  }

 private:
  SubtaskCursor subs_;
  std::int32_t k_;
  std::int64_t allowance_;
  std::int64_t prev_slot_ = -1;
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
    SlotTaskCheck check(sys, k, tardiness_allowance);
    sched.walk_task(k, [&](std::int32_t s, const SlotPlacement& p) {
      if (check.visit(rep, s, p)) loads.add(p.slot);
    });
  }
  loads.report(rep, sys.processors());
  return rep;
}

/// The DVQ conditions on one task, fed its placements in seq order.
class DvqTaskCheck {
 public:
  DvqTaskCheck(const TaskSystem& sys, std::int32_t k, Time allowance)
      : subs_(sys.task(k)), k_(k), allowance_(allowance) {}

  void visit(ValidityReport& rep, std::int32_t s, const DvqPlacement& p) {
    const SubtaskRef ref{k_, s};
    const Subtask sub = subs_.next();
    if (!p.placed) {
      add(rep, Violation::Kind::kUnscheduled, ref,
          "never placed (horizon reached?)");
      return;
    }
    if (p.start < Time::slots(sub.eligible)) {
      add(rep, Violation::Kind::kBeforeEligible, ref, "starts at ", p.start,
          " < e = ", sub.eligible);
    }
    if (p.completion() > Time::slots(sub.deadline) + allowance_) {
      add(rep, Violation::Kind::kDeadlineMiss, ref, "completes at ",
          p.completion(), " > d = ", sub.deadline, " + allowance ",
          allowance_);
    }
    if (has_prev_ && p.start < prev_completion_) {
      // Overlapping execution of one task = illegal parallelism; a
      // non-overlapping but out-of-order start cannot happen with
      // sequence-ordered placements, so report as parallelism.
      add(rep, Violation::Kind::kIntraTaskParallel, ref, "starts at ",
          p.start, " before predecessor completes at ", prev_completion_);
    }
    prev_completion_ = p.completion();
    has_prev_ = true;
  }
  /// Steps over `count` seqs, the last of them placed at `last`.
  void skip(std::int64_t count, const DvqPlacement& last) {
    subs_.skip(count);
    prev_completion_ = last.completion();
    has_prev_ = true;
  }

 private:
  SubtaskCursor subs_;
  std::int32_t k_;
  Time allowance_;
  Time prev_completion_;
  bool has_prev_ = false;
};

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

/// One check's use of the per-thread lanes: the checking walk count()s
/// every allocation, a second walk over the same placements fill()s the
/// lanes in walk order, then lane(q) is processor q's allocations.
class ProcLanes {
 public:
  explicit ProcLanes(std::size_t procs) : procs_(procs) {
    thread_local BusyLanes kept;
    lanes_ = &kept;
    lanes_->first.assign(procs + 1, 0);
  }

  void count(const DvqPlacement& p) {
    if (on_proc(p)) ++lanes_->first[static_cast<std::size_t>(p.proc) + 1];
  }
  void start_fill() {
    std::vector<std::size_t>& first = lanes_->first;
    for (std::size_t q = 0; q < procs_; ++q) first[q + 1] += first[q];
    lanes_->busy.resize(first[procs_]);
    next_.assign(first.begin(), first.end() - 1);
  }
  void fill(const SubtaskRef& ref, const DvqPlacement& p) {
    if (on_proc(p)) {
      lanes_->busy[next_[static_cast<std::size_t>(p.proc)]++] =
          Busy{p.start, p.completion(), ref};
    }
  }
  [[nodiscard]] std::span<Busy> lane(std::size_t q) {
    const std::vector<std::size_t>& first = lanes_->first;
    return {lanes_->busy.data() + first[q], first[q + 1] - first[q]};
  }
  [[nodiscard]] std::vector<Busy>& scratch() { return lanes_->scratch; }

 private:
  [[nodiscard]] bool on_proc(const DvqPlacement& p) const {
    return p.placed && p.proc >= 0 &&
           static_cast<std::size_t>(p.proc) < procs_;
  }

  std::size_t procs_;
  BusyLanes* lanes_;
  std::vector<std::size_t> next_;
};

/// No two allocations may overlap on one processor ("overloaded" here
/// means a processor double-booked at some instant): reports each
/// allocation of a start-sorted lane that starts before the previous one
/// ends.  A lane with any overlap has at least one such pair.
void report_overlaps(ValidityReport& rep, std::span<const Busy> lane) {
  for (std::size_t i = 1; i < lane.size(); ++i) {
    if (lane[i].start < lane[i - 1].end) {
      add(rep, Violation::Kind::kOverloadedSlot, lane[i].ref, "overlaps ",
          lane[i - 1].ref, " on processor (starts ", lane[i].start,
          " before ", lane[i - 1].end, ")");
    }
  }
}

std::int64_t start_key(const Busy& b) { return b.start.raw_ticks(); }

/// The order-log pass of a plain DvqSchedule (dvq/dvq_schedule.hpp):
/// true only if the log has one entry per placed cell (`placed` of
/// them) and, taken in log order, every entry names a placed cell on
/// one of the `procs` processors that starts no earlier than the
/// previous entry on its processor ends.  Every start, cost and
/// processor is read from the cell table.  Each processor's entries
/// then are its lane in strictly increasing start order — what the
/// sorted lanes below would hold — with no overlap, so the check has
/// nothing to report.  A repeated entry cannot pass (its second visit
/// starts before its own first visit ends), so with the count the log
/// names every placed cell exactly once; nor can a tie or an overlap.
/// Whether the whole log is in start order does not matter here: only
/// each processor's order is read.  Anything that fails returns false,
/// and the caller sorts the lanes to build the report.  O(placements),
/// no lanes and no sorts.
bool log_rules_out_overlaps(const DvqSchedule& sched, std::size_t procs,
                            std::int64_t placed) {
  const std::span<const std::int64_t> log = sched.order_log();
  if (static_cast<std::int64_t>(log.size()) != placed) return false;
  // Kept per thread across calls, like the lanes (see BusyLanes).
  thread_local std::vector<std::int64_t> last_end;
  last_end.assign(procs, std::numeric_limits<std::int64_t>::min());
  const std::int64_t total = sched.stored_cells();
  for (const std::int64_t i : log) {
    if (i < 0 || i >= total) return false;
    const DvqPlacement p = sched.flat_placement(i);
    if (!p.placed || p.proc < 0 || static_cast<std::size_t>(p.proc) >= procs) {
      return false;
    }
    std::int64_t& end = last_end[static_cast<std::size_t>(p.proc)];
    if (p.start.raw_ticks() < end) return false;
    end = p.completion().raw_ticks();
  }
  return true;
}

template <class Sched>
ValidityReport check_dvq_impl(const TaskSystem& sys, const Sched& sched,
                              Time tardiness_allowance) {
  ValidityReport rep;
  std::int64_t placed = 0;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    DvqTaskCheck check(sys, k, tardiness_allowance);
    sched.walk_task(k, [&](std::int32_t s, const DvqPlacement& p) {
      check.visit(rep, s, p);
      placed += p.placed ? 1 : 0;
    });
  }
  const auto procs = static_cast<std::size_t>(sys.processors());
  if constexpr (std::is_same_v<Sched, DvqSchedule>) {
    if (log_rules_out_overlaps(sched, procs, placed)) return rep;
  }
  // Per-processor occupancy for overlap checking: one pass counts each
  // lane's allocations, the next one fills the lanes in subtask order.
  ProcLanes lanes(procs);
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    sched.walk_task(k, [&](std::int32_t, const DvqPlacement& p) {
      lanes.count(p);
    });
  }
  lanes.start_fill();
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    sched.walk_task(k, [&](std::int32_t s, const DvqPlacement& p) {
      lanes.fill(SubtaskRef{k, s}, p);
    });
  }
  // Equal starts break by subtask, so the report order is deterministic
  // (the radix sort is stable and lanes are filled in subtask order).
  for (std::size_t q = 0; q < procs; ++q) {
    const std::span<Busy> lane = lanes.lane(q);
    sort_by_key<Busy>(lane, lanes.scratch(), start_key,
                      [](const Busy& a, const Busy& b) {
                        return a.start != b.start ? a.start < b.start
                                                  : a.ref < b.ref;
                      });
    report_overlaps(rep, lane);
  }
  return rep;
}

// --- Compressed schedules: one synthesized cycle stands for all m ---
//
// When a compressed schedule passes its side check (repeats_exactly),
// synthesized cycle j + 1 is cycle j shifted C slots, subtask windows
// included, so every per-subtask verdict in cycles 2..m repeats cycle
// 1's and every cycle-to-cycle join repeats the base-to-cycle-1 join.
// If, besides, the stored placements keep clear of the synthesized
// window — prefix and base before t1, base inside [t0, t1), tail from
// t1 + mC on — then each synthesized slot's load is its base slot's,
// and (an allocation being at most one quantum <= C long) each DVQ
// processor overlap lies within one cycle, across one cycle-to-cycle
// join, or across the joins out of the stored prefix and into the
// stored tail.  The passes below run the checks above over exactly
// those placements and certify the schedule clean only if they find
// nothing; a violation, a failed side check or the layout not holding
// returns false, and the caller runs the full per-task walk, which
// yields the byte-identical report.

/// The range each region's placements (start slots, or start ticks for
/// DVQ) must keep to for the walk above to stand for the whole schedule.
/// Cycle m's copies (kLast) lie where their base copies put them.
class SpliceLayout {
 public:
  SpliceLayout(const CycleStats& st, std::int64_t unit)
      : base_begin_(st.prefix_slots * unit),
        first_begin_(st.detect_slot * unit),
        first_end_((st.detect_slot + st.cycle_slots) * unit),
        tail_begin_((st.detect_slot + st.slots_skipped) * unit) {}

  [[nodiscard]] bool holds(SpliceRegion r, std::int64_t at) const {
    switch (r) {
      case SpliceRegion::kPrefix:
        return at < first_begin_;
      case SpliceRegion::kBase:
        return at >= base_begin_ && at < first_begin_;
      case SpliceRegion::kFirst:
        return at >= first_begin_ && at < first_end_;
      case SpliceRegion::kLast:
        return true;
      case SpliceRegion::kTail:
        return at >= tail_begin_;
    }
    return false;
  }
  [[nodiscard]] std::int64_t first_end() const { return first_end_; }
  [[nodiscard]] std::int64_t tail_begin() const { return tail_begin_; }

 private:
  std::int64_t base_begin_, first_begin_, first_end_, tail_begin_;
};

bool certify_slot_clean(const TaskSystem& sys, const CycleSchedule& sched,
                        std::int64_t tardiness_allowance) {
  if (!sched.repeats_exactly(sys)) return false;
  const SpliceLayout layout(sched.stats(), 1);
  // Loads over the prefix, base and first synthesized cycle, and the
  // tail: every other synthesized slot repeats one of cycle 1's.
  SlotLoads loads(layout.first_end(), layout.tail_begin(),
                  std::max(sched.horizon(), layout.tail_begin()),
                  sys.total_subtasks());
  ValidityReport rep;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    SlotTaskCheck check(sys, k, tardiness_allowance);
    bool fits = true;
    sched.walk_task_once(
        k,
        [&](std::int32_t s, const SlotPlacement& p, SpliceRegion r) {
          fits = fits && layout.holds(r, p.slot);
          if (check.visit(rep, s, p) && fits) loads.add(p.slot);
        },
        [&](std::int64_t count, const SlotPlacement& last) {
          check.skip(count, last);
        });
    if (!fits || !rep.valid()) return false;
  }
  loads.report(rep, sys.processors());
  return rep.valid();
}

bool certify_dvq_clean(const TaskSystem& sys, const DvqCycleSchedule& sched,
                       Time tardiness_allowance) {
  if (!sched.repeats_exactly(sys)) return false;
  const SpliceLayout layout(sched.stats(), kTicksPerSlot);
  const auto procs = static_cast<std::size_t>(sys.processors());
  ValidityReport rep;
  ProcLanes lanes(procs);
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    DvqTaskCheck check(sys, k, tardiness_allowance);
    bool fits = true;
    sched.walk_task_once(
        k,
        [&](std::int32_t s, const DvqPlacement& p, SpliceRegion r) {
          // Cycle m's copies only join the lanes: their own verdicts
          // repeat cycle 1's.
          if (r != SpliceRegion::kLast) {
            fits = fits && layout.holds(r, p.start.raw_ticks());
            check.visit(rep, s, p);
          }
          lanes.count(p);
        },
        [&](std::int64_t count, const DvqPlacement& last) {
          check.skip(count, last);
        });
    if (!fits || !rep.valid()) return false;
  }
  lanes.start_fill();
  const auto no_skip = [](std::int64_t, const DvqPlacement&) {};
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    sched.walk_task_once(
        k,
        [&](std::int32_t s, const DvqPlacement& p, SpliceRegion) {
          lanes.fill(SubtaskRef{k, s}, p);
        },
        no_skip);
  }
  // Whether any overlap exists does not depend on how equal starts are
  // ordered, so every lane takes the radix sort: these lanes hold a few
  // hundred allocations, where sort_by_key's comparison sort costs twice
  // as much.
  for (std::size_t q = 0; q < procs; ++q) {
    const std::span<Busy> lane = lanes.lane(q);
    radix_sort_by_key<Busy>(lane, lanes.scratch(), start_key);
    report_overlaps(rep, lane);
  }
  return rep.valid();
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
  if (certify_slot_clean(sys, sched, tardiness_allowance)) return {};
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
  if (certify_dvq_clean(sys, sched, tardiness_allowance)) return {};
  return check_dvq_impl(sys, sched, tardiness_allowance);
}

}  // namespace pfair
