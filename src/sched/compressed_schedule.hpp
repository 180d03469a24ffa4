// Cycle-compressed SFQ schedules — the representation half of
// steady-state fast-forward (detection lives in sched/state_hash.hpp).
//
// Once the simulator state at boundary t1 is proven equal to the state
// at t0 (< t1), the slots [t0, t1) repeat verbatim forever: instead of
// simulating m further cycles, `schedule_sfq_cyclic` *warps* the live
// simulator m cycles ahead and resumes real simulation for the tail.
// The warp cap — no task may exhaust its finite subtask sequence inside
// the skipped region — is what makes the splice exact: a finite run
// only diverges from the infinite periodic schedule after some task
// runs dry and frees contention, and every slot from that point on is
// simulated for real.
//
// The result is a `CycleSchedule`: the inner SlotSchedule holds the real
// prefix [0, t1) and the real tail [t1 + m*C, ...); placements inside
// the skipped window are synthesized on demand by shifting their
// base-cycle counterparts j*C slots (same processor — the decision
// sequence is identical, so the processor assignment is too).  The
// class satisfies the SlotSchedule accessor surface, so the validity /
// lag / tardiness analyses and the InvariantAuditor consume it
// unchanged.  Building and storing a CycleSchedule is
// O(prefix + cycle + tail + tasks) regardless of the horizon, and so
// are validity and tardiness: when an O(tasks) side check shows every
// task's windows shift by exactly one cycle per cycle
// (`repeats_exactly`), they walk each task once per cycle
// (`walk_task_once`: stored prefix and base cycle, synthesized cycle 1,
// the stored tail) and account for cycles 2..m in closed form.
// Validity only certifies a clean schedule that way; a violation, a
// failed side check or an unengaged schedule gets the full per-task
// `walk_task` (each skipped cycle one shifted run over the stored base
// cycle, O(subtasks)), which builds the report — the same bytes either
// way.  Random access (lag, the auditor replay, `slot_contents`)
// resolves `placement()` on demand; `materialize(h)` expands to a plain
// SlotSchedule for the reference oracles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/assert.hpp"
#include "sched/schedule.hpp"
#include "sched/sfq_scheduler.hpp"

namespace pfair {

class TraceSink;

/// Splice parameters of one task: which seqs are synthesized and where
/// their base copies live.
struct TaskSplice {
  std::int64_t cycle_begin = 0;  ///< head at t0: first seq of the base cycle
  std::int64_t skip_begin = 0;   ///< head at t1: first synthesized seq
  std::int64_t per_cycle = 0;    ///< subtasks this task places per cycle
  std::int64_t skip_count = 0;   ///< cycles_skipped * per_cycle
};

/// What the cycle detector did for one run.
struct CycleStats {
  bool engaged = false;          ///< a cycle was found and skipped
  std::int64_t prefix_slots = 0;    ///< t0: slots before the cycle starts
  std::int64_t cycle_slots = 0;     ///< C = t1 - t0
  std::int64_t detect_slot = 0;     ///< t1: boundary where recurrence confirmed
  std::int64_t cycles_skipped = 0;  ///< m
  std::int64_t slots_skipped = 0;   ///< m * C
  /// Slots actually simulated (engaged runs): SFQ, the final slot less
  /// slots_skipped; DVQ, the makespan in slots (a partial last slot
  /// counts) less slots_skipped.
  std::int64_t sim_slots = 0;
};

/// Where a placement visited by `walk_splice_once` lies in its task's
/// spliced sequence.
enum class SpliceRegion {
  kPrefix,  ///< stored, before the base cycle
  kBase,    ///< stored base cycle
  kFirst,   ///< synthesized cycle 1: the base cycle shifted one cycle
  kLast,    ///< synthesized cycle m (m > 1): placements reaching past it
  kTail,    ///< stored, after the last synthesized cycle
};

namespace detail {

/// The seq-order walk of one spliced task, shared by both compressed
/// schedule types: the stored prefix, then the base cycle once per
/// synthesized cycle j = 1, 2, ... as `shifted(base, j * cycle_slots)`,
/// then the stored tail.  No division per subtask: the cycle index and
/// its shift advance once per cycle.
template <class Stored, class Shift, class F>
void walk_splice(const Stored& stored, std::int64_t task,
                 const TaskSplice& sp, std::int64_t cycle_slots,
                 Shift shifted, F& f) {
  stored.walk_seqs(task, 0, sp.skip_begin, f);
  auto seq = static_cast<std::int32_t>(sp.skip_begin);
  std::int64_t shift = cycle_slots;
  for (std::int64_t off = 0; off < sp.skip_count; off += sp.per_cycle) {
    const std::int64_t len = std::min(sp.per_cycle, sp.skip_count - off);
    stored.walk_seqs(task, sp.cycle_begin, sp.cycle_begin + len,
                     [&](std::int32_t, const auto& base) {
                       f(seq++, shifted(base, shift));
                     });
    shift += cycle_slots;
  }
  stored.walk_seqs(task, sp.skip_begin + sp.skip_count,
                   stored.num_subtasks(task), f);
}

/// The side check that makes `walk_splice_once` exact: the stored
/// schedule is shaped like `sys`, every task is periodic, and each
/// task's splice advances exactly one cycle of windows per cycle —
/// per_cycle·p == e·C with p | C, so synthesized cycle j + 1 repeats
/// cycle j shifted C slots, subtask windows included.  O(tasks).
template <class Stored>
bool splices_repeat(const TaskSystem& sys, const Stored& stored,
                    const CycleStats& st,
                    const std::vector<TaskSplice>& splices) {
  const std::int64_t m = st.cycles_skipped, c = st.cycle_slots;
  std::int64_t skipped = 0;
  if (!st.engaged || m < 1 || c < 1 ||
      st.detect_slot - st.prefix_slots != c ||
      __builtin_mul_overflow(m, c, &skipped) || skipped != st.slots_skipped ||
      sys.num_tasks() != stored.num_tasks()) {
    return false;
  }
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    const Weight& w = task.weight();
    const TaskSplice& sp = splices[static_cast<std::size_t>(k)];
    std::int64_t windows = 0, quanta = 0, count = 0;
    if ((task.kind() != TaskKind::kPeriodic &&
         task.kind() != TaskKind::kSporadic) ||
        task.num_subtasks() != stored.num_subtasks(k) || sp.per_cycle < 1 ||
        sp.skip_begin - sp.cycle_begin != sp.per_cycle || c % w.p != 0 ||
        __builtin_mul_overflow(sp.per_cycle, w.p, &windows) ||
        __builtin_mul_overflow(w.e, c, &quanta) || windows != quanta ||
        __builtin_mul_overflow(m, sp.per_cycle, &count) ||
        count != sp.skip_count) {
      return false;
    }
  }
  return true;
}

/// The once-per-cycle walk of one spliced task, for splices that pass
/// `splices_repeat`: the stored prefix and base cycle, synthesized cycle
/// 1, then `elide(count, last)` standing for cycles 2..m (`count` seqs,
/// `last` the placement of the final synthesized seq), then the stored
/// tail — f(seq, placement, region) in seq order.  Cycle m's placements
/// for which `straddles(base)` holds (they reach past the cycle's end
/// into the tail) are visited too, as kLast, interleaved with cycle 1
/// and out of seq order.  O(prefix + cycle + tail) per task, whatever m.
template <class Stored, class Shift, class Straddles, class F, class Elide>
void walk_splice_once(const Stored& stored, std::int64_t task,
                      const TaskSplice& sp, std::int64_t cycles,
                      std::int64_t cycle_shift, Shift shifted,
                      Straddles straddles, F& f, Elide& elide) {
  const auto region = [&](SpliceRegion r) {
    return [&f, r](std::int32_t s, const auto& p) { f(s, p, r); };
  };
  stored.walk_seqs(task, 0, sp.cycle_begin, region(SpliceRegion::kPrefix));
  stored.walk_seqs(task, sp.cycle_begin, sp.skip_begin,
                   region(SpliceRegion::kBase));
  const std::int64_t last_offset = sp.skip_count - sp.per_cycle;
  auto seq = static_cast<std::int32_t>(sp.skip_begin);
  stored.walk_seqs(task, sp.cycle_begin, sp.skip_begin,
                   [&](std::int32_t, const auto& base) {
                     f(seq, shifted(base, cycle_shift), SpliceRegion::kFirst);
                     if (cycles > 1 && straddles(base)) {
                       f(static_cast<std::int32_t>(seq + last_offset),
                         shifted(base, cycles * cycle_shift),
                         SpliceRegion::kLast);
                     }
                     ++seq;
                   });
  const auto last_base = stored.placement(
      SubtaskRef{static_cast<std::int32_t>(task),
                 static_cast<std::int32_t>(sp.skip_begin - 1)});
  elide(last_offset, shifted(last_base, cycles * cycle_shift));
  stored.walk_seqs(task, sp.skip_begin + sp.skip_count,
                   stored.num_subtasks(task), region(SpliceRegion::kTail));
}

}  // namespace detail

/// A schedule stored as real prefix + one stored cycle + repeat count +
/// real tail.  Mirrors the SlotSchedule read surface (placement by
/// value — synthesized placements have no storage to reference).
class CycleSchedule {
 public:
  /// A plain (non-engaged) wrapping of a fully stored schedule.
  explicit CycleSchedule(SlotSchedule inner);
  /// An engaged splice.  `complete` is the simulator's own completion
  /// verdict (every subtask placed), which the constructor cannot
  /// recount without O(horizon) work.
  CycleSchedule(SlotSchedule inner, CycleStats stats,
                std::vector<TaskSplice> splices, bool complete);

  [[nodiscard]] SlotPlacement placement(const SubtaskRef& ref) const;
  /// Visits every placement of `task` in seq order, f(seq, placement):
  /// the stored prefix, the base cycle once per skipped cycle shifted
  /// whole cycles later, then the stored tail.  Every synthesized read
  /// keeps placement()'s "base cycle placement missing" contract.
  template <class F>
  void walk_task(std::int64_t task, F&& f) const {
    if (!stats_.engaged) return inner_.walk_task(task, f);
    PFAIR_REQUIRE(task >= 0 && task < num_tasks(), "bad task " << task);
    detail::walk_splice(inner_, task,
                        splices_[static_cast<std::size_t>(task)],
                        stats_.cycle_slots, shifted, f);
  }
  /// True iff `walk_task_once` stands exactly for `walk_task` on `sys`
  /// (see detail::splices_repeat).  O(tasks).
  [[nodiscard]] bool repeats_exactly(const TaskSystem& sys) const {
    return detail::splices_repeat(sys, inner_, stats_, splices_);
  }
  /// The once-per-cycle walk of `task`, f(seq, placement, region) plus
  /// elide(count, last) — see detail::walk_splice_once.  Requires
  /// repeats_exactly().  A slot never reaches past its cycle's end, so
  /// no placement is visited as kLast.
  template <class F, class Elide>
  void walk_task_once(std::int64_t task, F&& f, Elide&& elide) const {
    PFAIR_REQUIRE(task >= 0 && task < num_tasks(), "bad task " << task);
    detail::walk_splice_once(
        inner_, task, splices_[static_cast<std::size_t>(task)],
        stats_.cycles_skipped, stats_.cycle_slots, shifted,
        [](const SlotPlacement&) { return false; }, f, elide);
  }
  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] std::int64_t horizon() const { return horizon_; }
  [[nodiscard]] std::int64_t completion_slot(const SubtaskRef& ref) const;
  [[nodiscard]] std::vector<SubtaskRef> slot_contents(std::int64_t slot) const;
  [[nodiscard]] std::int64_t num_tasks() const { return inner_.num_tasks(); }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return inner_.num_subtasks(task);
  }

  [[nodiscard]] const CycleStats& stats() const { return stats_; }
  /// The physically stored placements (prefix + base cycle + tail).
  [[nodiscard]] const SlotSchedule& stored() const { return inner_; }
  [[nodiscard]] SlotSchedule take_stored() && { return std::move(inner_); }

  /// Expands into a plain SlotSchedule containing every placement whose
  /// slot is < `horizon` plus everything already stored.  O(subtasks).
  [[nodiscard]] SlotSchedule materialize(std::int64_t horizon) const;

 private:
  [[nodiscard]] bool in_skip(const TaskSplice& sp, std::int64_t seq) const {
    return stats_.engaged && seq >= sp.skip_begin &&
           seq < sp.skip_begin + sp.skip_count;
  }
  /// A synthesized placement: its base-cycle copy `shift` slots later.
  static SlotPlacement shifted(const SlotPlacement& base, std::int64_t shift) {
    PFAIR_REQUIRE(base.scheduled(), "base cycle placement missing");
    return SlotPlacement{base.slot + shift, base.proc};
  }

  SlotSchedule inner_;
  CycleStats stats_;
  std::vector<TaskSplice> splices_;  // one per task; empty if !engaged
  std::int64_t horizon_ = 0;
  bool complete_ = false;
};

/// Runs the SFQ scheduler with steady-state cycle detection: simulates
/// normally while probing the state fingerprint at every hyperperiod
/// boundary, and on a confirmed recurrence warps over as many whole
/// cycles as the horizon and the tasks' subtask counts allow.  Falls
/// back to a plain full run (stats().engaged == false) whenever the
/// system is not fingerprintable, the horizon never reaches a second
/// hyperperiod boundary, no recurrence shows up, or the run is observed
/// (opts.trace / opts.metrics / opts.quality) — observed streams are
/// never elided.  A trace sink asking for explain events makes this an
/// explain run of schedule_sfq_reference, wrapped unengaged.  Ignores
/// opts.cycle_detect (callers gate on it).
[[nodiscard]] CycleSchedule schedule_sfq_cyclic(const TaskSystem& sys,
                                                const SfqOptions& opts = {});

/// Re-emits the decision-outcome trace stream (slot begins, placements,
/// migrations, deadline outcomes — the kDecisionTraceEvents shapes the
/// simulators produce) of an already-computed schedule into `sink`.
/// This is how a CycleSchedule-backed run feeds the InvariantAuditor
/// without materializing.  O(horizon + subtasks log subtasks).
void replay_decisions(const TaskSystem& sys, const CycleSchedule& sched,
                      TraceSink& sink);

}  // namespace pfair
