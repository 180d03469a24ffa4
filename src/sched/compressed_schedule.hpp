// Cycle-compressed schedules — the representation half of steady-state
// fast-forward, one type for both models (detection: sched/state_hash.hpp
// for SFQ, dvq/dvq_cycle.hpp for DVQ; the one probe-and-warp driver:
// sched/fast_forward.hpp).
//
// Once the simulator state at boundary t1 is proven equal to the state
// at t0 (< t1), the schedule over [t0, t1) repeats verbatim forever:
// instead of simulating m further cycles, the driver *warps* the live
// simulator m cycles ahead and resumes real simulation for the tail.
// The warp cap — no task may exhaust its finite subtask sequence inside
// the skipped region — is what makes the splice exact: a finite run
// only diverges from the infinite periodic schedule after some task
// runs dry and frees contention, and every slot from that point on is
// simulated for real.
//
// The result is a `SplicedSchedule<Stored>` — `CycleSchedule` over a
// SlotSchedule, `DvqCycleSchedule` over a DvqSchedule.  The stored
// schedule holds the real prefix [0, t1) and the real tail
// [t1 + m*C, ...), and stores cells for those seqs only: the skipped
// seqs are its gap (sched/cell_store.hpp), which reads as unplaced.
// Placements inside the skipped window are synthesized
// on demand by shifting their base-cycle counterparts j*C slots (same
// processor and cost — the decision sequence is identical, so the
// processor assignment is too).  The class mirrors the stored type's
// read surface, so the validity / lag / tardiness analyses and the
// InvariantAuditor consume it unchanged.  Building and storing a
// spliced schedule is O(prefix + cycle + tail + tasks) in time and
// memory regardless of the horizon, and so are validity and tardiness: when an O(tasks) side
// check shows every task's windows shift by exactly one cycle per cycle
// (`repeats_exactly`), they walk each task once per cycle
// (`walk_task_once`: stored prefix and base cycle, synthesized cycle 1,
// the stored tail) and account for cycles 2..m in closed form.
// Validity only certifies a clean schedule that way; a violation, a
// failed side check or an unengaged schedule gets the full per-task
// `walk_task` (each skipped cycle one shifted run over the stored base
// cycle, O(subtasks)), which builds the report — the same bytes either
// way.  Random access (lag, the auditor replay, `slot_contents`)
// resolves `placement()` on demand; `materialize()` expands to a plain
// stored schedule for the reference oracles.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/assert.hpp"
#include "sched/schedule.hpp"
#include "sched/sfq_scheduler.hpp"

namespace pfair {

class TraceSink;

template <class Stored>
class SplicedSchedule;

namespace detail {
/// The fast-forward driver (sched/fast_forward.hpp), which SplicedSchedule
/// befriends.
template <class Model, class Opts, class... SimArgs>
SplicedSchedule<typename Model::Stored> fast_forward(
    const TaskSystem& sys, const Opts& opts, bool probe,
    const SimArgs&... sim_args);
}  // namespace detail

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

/// Where a placement visited by `walk_task_once` lies in its task's
/// spliced sequence.
enum class SpliceRegion {
  kPrefix,  ///< stored, before the base cycle
  kBase,    ///< stored base cycle
  kFirst,   ///< synthesized cycle 1: the base cycle shifted one cycle
  kLast,    ///< synthesized cycle m (m > 1): placements reaching past it
  kTail,    ///< stored, after the last synthesized cycle
};

/// What a stored schedule type supplies to SplicedSchedule: its
/// placement type, the unit a shift of one slot is counted in, the
/// synthesized copy of a base placement, whether a base placement
/// reaches past its cycle's end (`straddles`, for walk_task_once), the
/// schedule's end (SFQ horizon(), DVQ makespan()) and a placement's.
/// Specialized here for SlotSchedule and in dvq/dvq_cycle.hpp for
/// DvqSchedule.
template <class Stored>
struct SpliceTraits;

template <>
struct SpliceTraits<SlotSchedule> {
  using Placement = SlotPlacement;
  static constexpr std::int64_t kUnit = 1;  ///< one slot, in slots

  static SlotPlacement shifted(const SlotPlacement& base, std::int64_t shift) {
    PFAIR_REQUIRE(base.scheduled(), "base cycle placement missing");
    return SlotPlacement{base.slot + shift, base.proc};
  }
  /// A slot never reaches past its cycle's end.
  static bool straddles(const SlotPlacement&, std::int64_t /*cycle_end*/) {
    return false;
  }
  static std::int64_t end(const SlotSchedule& s) { return s.horizon(); }
  static std::int64_t end(const SlotPlacement& p) { return p.slot + 1; }
  static void place(SlotSchedule& out, const SubtaskRef& ref,
                    const SlotPlacement& p) {
    out.place(ref, p.slot, p.proc);
  }
};

/// A schedule stored as real prefix + one stored cycle + repeat count +
/// real tail.  Mirrors the `Stored` read surface (placement by value —
/// synthesized placements have no storage to reference); SFQ-only
/// members are constrained to SlotSchedule.
template <class Stored>
class SplicedSchedule {
  using Traits = SpliceTraits<Stored>;

 public:
  using Placement = typename Traits::Placement;
  /// The type of the schedule's end: slots (SFQ) or a Time (DVQ).
  using End = decltype(Traits::end(std::declval<const Stored&>()));

  /// A plain (non-engaged) wrapping of a fully stored schedule.
  explicit SplicedSchedule(Stored inner)
      : inner_(std::move(inner)),
        end_(Traits::end(inner_)),
        complete_(inner_.complete()) {}
  /// A splice (unengaged when !stats.engaged, `splices` then unread).
  /// `complete` is the simulator's own completion verdict (every subtask
  /// placed), which the constructor cannot recount without O(horizon)
  /// work.
  SplicedSchedule(Stored inner, CycleStats stats,
                  std::vector<TaskSplice> splices, bool complete);

  [[nodiscard]] Placement placement(const SubtaskRef& ref) const {
    if (!stats_.engaged) return inner_.placement(ref);
    const TaskSplice& sp = splices_[static_cast<std::size_t>(ref.task)];
    if (ref.seq < sp.skip_begin || ref.seq >= sp.skip_begin + sp.skip_count) {
      return inner_.placement(ref);
    }
    return synthesized(inner_, ref.task, sp, ref.seq - sp.skip_begin);
  }
  /// Visits every placement of `task` in seq order, f(seq, placement):
  /// the stored prefix, the base cycle once per skipped cycle shifted
  /// whole cycles later, then the stored tail.  No division per subtask:
  /// the cycle's shift advances once per cycle.  Every synthesized read
  /// keeps placement()'s "base cycle placement missing" contract.
  template <class F>
  void walk_task(std::int64_t task, F&& f) const {
    if (!stats_.engaged) return inner_.walk_task(task, f);
    PFAIR_REQUIRE(task >= 0 && task < num_tasks(), "bad task " << task);
    const TaskSplice& sp = splices_[static_cast<std::size_t>(task)];
    inner_.walk_seqs(task, 0, sp.skip_begin, f);
    auto seq = static_cast<std::int32_t>(sp.skip_begin);
    std::int64_t shift = cycle_shift();
    for (std::int64_t off = 0; off < sp.skip_count; off += sp.per_cycle) {
      const std::int64_t len = std::min(sp.per_cycle, sp.skip_count - off);
      inner_.walk_seqs(task, sp.cycle_begin, sp.cycle_begin + len,
                       [&](std::int32_t, const auto& base) {
                         f(seq++, Traits::shifted(base, shift));
                       });
      shift += cycle_shift();
    }
    inner_.walk_seqs(task, sp.skip_begin + sp.skip_count,
                     inner_.num_subtasks(task), f);
  }
  /// True iff `walk_task_once` stands exactly for `walk_task` on `sys`:
  /// the stored schedule is shaped like `sys`, every task is periodic,
  /// and each task's splice advances exactly one cycle of windows per
  /// cycle — per_cycle·p == e·C with p | C, so synthesized cycle j + 1
  /// repeats cycle j shifted C slots, subtask windows included.  O(tasks).
  [[nodiscard]] bool repeats_exactly(const TaskSystem& sys) const;
  /// The once-per-cycle walk of `task`, for splices that pass
  /// `repeats_exactly`: the stored prefix and base cycle, synthesized
  /// cycle 1, then `elide(count, last)` standing for cycles 2..m
  /// (`count` seqs, `last` the placement of the final synthesized seq),
  /// then the stored tail — f(seq, placement, region) in seq order.
  /// Cycle m's copies of base placements that complete after the detect
  /// boundary (they reach into the tail; never a slot, only a DVQ
  /// allocation) are visited too, as kLast, interleaved with cycle 1 and
  /// out of seq order.  O(prefix + cycle + tail) per task, whatever m.
  template <class F, class Elide>
  void walk_task_once(std::int64_t task, F&& f, Elide&& elide) const {
    PFAIR_REQUIRE(task >= 0 && task < num_tasks(), "bad task " << task);
    const TaskSplice& sp = splices_[static_cast<std::size_t>(task)];
    const auto region = [&f](SpliceRegion r) {
      return [&f, r](std::int32_t s, const auto& p) { f(s, p, r); };
    };
    inner_.walk_seqs(task, 0, sp.cycle_begin, region(SpliceRegion::kPrefix));
    inner_.walk_seqs(task, sp.cycle_begin, sp.skip_begin,
                     region(SpliceRegion::kBase));
    const std::int64_t cycles = stats_.cycles_skipped, shift = cycle_shift();
    const std::int64_t cycle_end = stats_.detect_slot * Traits::kUnit;
    const std::int64_t last_offset = sp.skip_count - sp.per_cycle;
    auto seq = static_cast<std::int32_t>(sp.skip_begin);
    inner_.walk_seqs(
        task, sp.cycle_begin, sp.skip_begin,
        [&](std::int32_t, const auto& base) {
          f(seq, Traits::shifted(base, shift), SpliceRegion::kFirst);
          if (cycles > 1 && Traits::straddles(base, cycle_end)) {
            f(static_cast<std::int32_t>(seq + last_offset),
              Traits::shifted(base, cycles * shift), SpliceRegion::kLast);
          }
          ++seq;
        });
    const auto last_base = inner_.placement(
        SubtaskRef{static_cast<std::int32_t>(task),
                   static_cast<std::int32_t>(sp.skip_begin - 1)});
    elide(last_offset, Traits::shifted(last_base, cycles * shift));
    inner_.walk_seqs(task, sp.skip_begin + sp.skip_count,
                     inner_.num_subtasks(task), region(SpliceRegion::kTail));
  }
  [[nodiscard]] bool complete() const { return complete_; }
  /// One past the latest occupied slot, synthesized slots included.
  [[nodiscard]] std::int64_t horizon() const
    requires std::same_as<Stored, SlotSchedule>
  {
    return end_;
  }
  /// The latest completion, synthesized allocations included.
  [[nodiscard]] End makespan() const
    requires(!std::same_as<Stored, SlotSchedule>)
  {
    return end_;
  }
  [[nodiscard]] std::int64_t completion_slot(const SubtaskRef& ref) const
    requires std::same_as<Stored, SlotSchedule>
  {
    const SlotPlacement pl = placement(ref);
    PFAIR_REQUIRE(pl.scheduled(), "completion_slot of unscheduled subtask");
    return pl.slot + 1;
  }
  /// All subtasks placed in `slot`, ordered by processor.
  [[nodiscard]] std::vector<SubtaskRef> slot_contents(std::int64_t slot) const
    requires std::same_as<Stored, SlotSchedule>;
  [[nodiscard]] std::int64_t num_tasks() const { return inner_.num_tasks(); }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return inner_.num_subtasks(task);
  }

  [[nodiscard]] const CycleStats& stats() const { return stats_; }
  /// The physically stored placements (prefix + base cycle + tail); the
  /// skipped seqs are not stored and read as unplaced.
  [[nodiscard]] const Stored& stored() const { return inner_; }

  /// Expands into a plain schedule storing every subtask and holding
  /// every placement, stored and synthesized.  O(subtasks).
  [[nodiscard]] Stored materialize() const& {
    Stored out = inner_;
    synthesize_into(out);
    return out;
  }
  [[nodiscard]] Stored materialize() && {
    Stored out = std::move(inner_);
    synthesize_into(out);
    return out;
  }

 private:
  template <class Model, class Opts, class... SimArgs>
  friend SplicedSchedule<typename Model::Stored> detail::fast_forward(
      const TaskSystem&, const Opts&, bool, const SimArgs&...);

  [[nodiscard]] std::int64_t cycle_shift() const {
    return stats_.cycle_slots * Traits::kUnit;
  }
  /// Synthesized seq skip_begin + `off` of `task`: its base copy in
  /// `from`, shifted the whole cycles in between.
  [[nodiscard]] Placement synthesized(const Stored& from, std::int32_t task,
                                      const TaskSplice& sp,
                                      std::int64_t off) const {
    const auto base = static_cast<std::int32_t>(sp.cycle_begin +
                                                off % sp.per_cycle);
    return Traits::shifted(from.placement(SubtaskRef{task, base}),
                           (off / sp.per_cycle + 1) * cycle_shift());
  }
  /// Stores every seq of `out`, which holds the stored placements (the
  /// base copies it reads), and places every synthesized seq there.
  void synthesize_into(Stored& out) const {
    out.store_all();
    if (!stats_.engaged) return;
    for (std::size_t k = 0; k < splices_.size(); ++k) {
      const TaskSplice& sp = splices_[k];
      const auto task = static_cast<std::int32_t>(k);
      for (std::int64_t off = 0; off < sp.skip_count; ++off) {
        const SubtaskRef ref{task,
                             static_cast<std::int32_t>(sp.skip_begin + off)};
        Traits::place(out, ref, synthesized(out, task, sp, off));
      }
    }
  }

  Stored inner_;
  CycleStats stats_;
  std::vector<TaskSplice> splices_;  // one per task; empty if !engaged
  End end_;
  bool complete_ = false;
};

template <class Stored>
SplicedSchedule<Stored>::SplicedSchedule(Stored inner, CycleStats stats,
                                         std::vector<TaskSplice> splices,
                                         bool complete)
    : inner_(std::move(inner)),
      stats_(stats),
      splices_(std::move(splices)),
      end_(Traits::end(inner_)),
      complete_(complete) {
  if (!stats_.engaged) return;
  PFAIR_REQUIRE(static_cast<std::int64_t>(splices_.size()) ==
                    inner_.num_tasks(),
                "one splice per task required");
  // The stored end misses the synthesized placements whenever the run
  // ended exactly at (or inside) the skipped window; fold in each task's
  // last synthesized placement.
  for (std::size_t k = 0; k < splices_.size(); ++k) {
    const TaskSplice& sp = splices_[k];
    const auto task = static_cast<std::int32_t>(k);
    PFAIR_REQUIRE(sp.skip_begin >= 0 && sp.skip_count >= 0 &&
                      sp.skip_begin + sp.skip_count <=
                          inner_.num_subtasks(task) &&
                      (sp.skip_count == 0 || sp.per_cycle > 0),
                  "splice of task " << k << " out of range");
    if (sp.skip_count == 0) continue;
    end_ = std::max(end_, Traits::end(synthesized(inner_, task, sp,
                                                  sp.skip_count - 1)));
  }
}

template <class Stored>
bool SplicedSchedule<Stored>::repeats_exactly(const TaskSystem& sys) const {
  const std::int64_t m = stats_.cycles_skipped, c = stats_.cycle_slots;
  std::int64_t skipped = 0;
  if (!stats_.engaged || m < 1 || c < 1 ||
      stats_.detect_slot - stats_.prefix_slots != c ||
      __builtin_mul_overflow(m, c, &skipped) ||
      skipped != stats_.slots_skipped ||
      sys.num_tasks() != inner_.num_tasks()) {
    return false;
  }
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    const Weight& w = task.weight();
    const TaskSplice& sp = splices_[static_cast<std::size_t>(k)];
    std::int64_t windows = 0, quanta = 0, count = 0;
    if ((task.kind() != TaskKind::kPeriodic &&
         task.kind() != TaskKind::kSporadic) ||
        task.num_subtasks() != inner_.num_subtasks(k) || sp.per_cycle < 1 ||
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

template <class Stored>
std::vector<SubtaskRef> SplicedSchedule<Stored>::slot_contents(
    std::int64_t slot) const
  requires std::same_as<Stored, SlotSchedule>
{
  const std::int64_t skip_lo = stats_.detect_slot;
  const std::int64_t skip_hi = stats_.detect_slot + stats_.slots_skipped;
  if (!stats_.engaged || slot < skip_lo || slot >= skip_hi) {
    return inner_.slot_contents(slot);
  }
  // A synthesized slot: its contents are the base cycle slot's, with
  // every seq advanced by the number of whole cycles in between.
  const std::int64_t j = (slot - skip_lo) / stats_.cycle_slots;
  const std::int64_t base_slot =
      stats_.prefix_slots + (slot - skip_lo) % stats_.cycle_slots;
  std::vector<SubtaskRef> refs = inner_.slot_contents(base_slot);
  for (SubtaskRef& ref : refs) {
    const TaskSplice& sp = splices_[static_cast<std::size_t>(ref.task)];
    ref.seq = static_cast<std::int32_t>(sp.skip_begin + j * sp.per_cycle +
                                        (ref.seq - sp.cycle_begin));
  }
  return refs;
}

/// The cycle-compressed SFQ schedule.
using CycleSchedule = SplicedSchedule<SlotSchedule>;

/// Runs the SFQ scheduler with steady-state cycle detection: simulates
/// normally while probing the state fingerprint at every hyperperiod
/// boundary, and on a confirmed recurrence warps over as many whole
/// cycles as the horizon and the tasks' subtask counts allow.  Falls
/// back to a plain full run (stats().engaged == false) whenever the
/// system is not fingerprintable, the horizon never reaches a second
/// hyperperiod boundary, no recurrence shows up, or the run is observed
/// (opts.trace / opts.metrics / opts.quality) — observed streams are
/// never elided.  Ignores opts.cycle_detect (callers gate on it).
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
