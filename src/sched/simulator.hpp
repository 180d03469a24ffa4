// Stepwise SFQ simulation — the incremental counterpart of
// `schedule_sfq` for interactive use, debuggers, and tests that want to
// inspect scheduler state mid-run (ready sets, per-task lags).
//
// One `step()` performs the scheduling decisions of exactly one slot.
// `schedule_sfq` is implemented on top of this class, so both paths are
// always behaviourally identical.
//
// Per-decision cost is O(changes), not O(tasks): readiness transitions
// are indexed in a calendar of per-slot buckets (a task's head subtask
// becomes available at max(its eligibility, the slot after its
// predecessor ran) — a slot known the moment the predecessor is placed),
// and available heads wait in a priority heap ordered by packed 64-bit
// keys (see sched/packed_key.hpp and sched/ready_queue.hpp).  A slot
// decision drains the due buckets and pops at most M winners.  The
// schedule is bit-identical to the retained naive reference
// (`schedule_sfq_reference`), which re-scans and re-sorts everything —
// the A/B equivalence suite asserts this across policies and workloads.
//
// The hot path is data-oriented.  All per-task mutable state a
// placement touches lives in one 64-byte HotTask record: the
// division-free head cursor of sched/positions.hpp (head, the head's
// precomputed priority key, the in-period position) plus the last slot;
// the per-position constants (key base/step, eligibility base) sit in a
// flat PosRec table shared by flyweight jobs; the ready set is the
// keys-only 8-ary SIMD heap of ready_queue.hpp, whose pops name a task
// (a key's low field) and leave its head to this record; the calendar
// is a SlotBuckets queue (sched/slot_buckets.hpp: chunked buckets
// recycled through a freelist), whose drained chunks are walked with
// explicit prefetch of the hot records they name; and schedule cells
// are written straight into the schedule's cell block (SlotSchedule
// befriends the simulator) instead of through the checked `place`.
//
// The schedule stores only what the run can have placed (StoreBudget,
// sched/positions.hpp): before it simulates up to slot t, its store
// grows to every seq eligible before t, and a warp leaves the skipped
// seqs unstored.  run_until(limit) grows it once, to the limit.  With an
// Arena supplied, every piece of working state is bump-allocated, and a
// schedule supplied as `out` is stored in full up front, so repeated
// schedule calls allocate nothing in steady state.  None of this changes
// placements: keys realize the same strict total order, so the A/B
// suite pins bit-identicality.
//
// A probe (trace sink and/or metrics) rides on the same fast path: the
// decision events are reported as placements commit,
// sched.ready_set_size is the ready heap's size at each decision, and an
// explain sink gets each slot's explanation (obs/trace.hpp) in O(M): the
// cut is taken at the heap top left after the pops, the preemptions
// among the previous slot's winners.  There is no second decision body,
// and no quality accounting: quality counts and the sched.preemptions /
// .migrations / .idle_quanta metrics come from the recount of the
// finished schedule (analysis/recount.hpp, add_recount), which the
// scheduler entry points run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/arena.hpp"
#include "core/rational.hpp"
#include "obs/probe.hpp"
#include "sched/packed_key.hpp"
#include "sched/positions.hpp"
#include "sched/priority.hpp"
#include "sched/ready_queue.hpp"
#include "sched/schedule.hpp"
#include "sched/slot_buckets.hpp"

namespace pfair {

struct SfqOptions;       // sched/sfq_scheduler.hpp

/// Incremental slot-by-slot Pfair scheduler.
/// The task system (and arena / external schedule, if supplied) must
/// outlive the simulator.
class SfqSimulator {
 public:
  /// With `arena`, all working state is bump-allocated there (the arena
  /// must be fresh or reset; the simulator never resets it).  With
  /// `out`, placements are written into `*out` — it must be shaped like
  /// `sys` and hold no placements (see SlotSchedule::clear_placements);
  /// it is made to store every subtask — and take_schedule() must not be
  /// called.
  explicit SfqSimulator(const TaskSystem& sys, Policy policy = Policy::kPd2,
                        Arena* arena = nullptr, SlotSchedule* out = nullptr);

  /// Next slot to be scheduled (number of steps taken so far).
  [[nodiscard]] std::int64_t now() const { return now_; }
  /// True once every materialized subtask has been placed.
  [[nodiscard]] bool done() const { return remaining_ == 0; }

  /// The subtasks that would be ready if the current slot were scheduled
  /// now (unsorted, one per task at most).  Introspection only — a full
  /// scan, not the hot path.
  [[nodiscard]] std::vector<SubtaskRef> ready() const;

  /// Schedules slot now(), returns the chosen subtasks in priority order
  /// (at most M).
  std::vector<SubtaskRef> step();

  /// Runs until done() or `slot_limit` steps have been taken in total.
  /// Attached metrics reach the registry when it returns (counts are
  /// batched per call; step() flushes per decision).
  void run_until(std::int64_t slot_limit);

  /// The schedule accumulated so far.
  [[nodiscard]] const SlotSchedule& schedule() const { return *sched_; }
  /// Moves the schedule out; the simulator must not be used afterwards.
  /// Requires an internally-owned schedule (no `out` at construction).
  [[nodiscard]] SlotSchedule take_schedule() &&;

  /// lag(T, now()) = wt(T) * now() - quanta allocated so far — the fluid
  /// drift of task `task` at the current boundary.
  [[nodiscard]] Rational lag_of(std::int64_t task) const;

  /// The system being scheduled.
  [[nodiscard]] const TaskSystem& system() const { return *sys_; }
  /// Raw per-task counters, for state fingerprints (sched/state_hash.hpp).
  [[nodiscard]] std::int64_t head_of(std::int64_t task) const {
    return hot_[static_cast<std::size_t>(task)].head;
  }
  [[nodiscard]] std::int64_t last_slot_of(std::int64_t task) const {
    return hot_[static_cast<std::size_t>(task)].last_slot;
  }

  /// Fast-forwards `cycles` repetitions of a detected steady-state cycle
  /// of `cycle_slots` slots in which task k places exactly
  /// `cycle_allocs[k]` subtasks: counters jump, the availability calendar
  /// and ready heap are rebuilt (each head cursor seeks its new seq),
  /// and simulation resumes at now() + cycles * cycle_slots as if every
  /// skipped slot had been stepped.  The skipped seqs are left unstored
  /// (they read as unscheduled).  The caller, the shared fast-forward
  /// driver (detail::fast_forward, sched/fast_forward.hpp), has *proved*
  /// the recurrence via fingerprints; the skipped placements are never
  /// materialized here.  Requires an uninstrumented simulator at a slot
  /// boundary.
  void warp(std::int64_t cycles, std::int64_t cycle_slots,
            const std::vector<std::int64_t>& cycle_allocs);

  /// Installs a structured trace sink (not owned; may be null to
  /// uninstall) — at any step; placements are unaffected.  The sink's
  /// event_mask() decides whether each slot's explanation is built.
  void set_trace_sink(TraceSink* sink);
  /// Accumulates sched.* metrics (see obs/probe.hpp) into `reg`, which
  /// must outlive the simulator or the next detach_metrics().  May be
  /// attached mid-run: counting starts at the next step.
  void attach_metrics(MetricsRegistry& reg);
  void detach_metrics();

 private:
  /// All mutable per-task scheduling state, one cache line per task:
  /// the head cursor (sched/positions.hpp) plus the last slot.
  struct alignas(64) HotTask : HeadCursor {
    std::int64_t last_slot;   // most recent placement slot; -1 if none
  };
  static_assert(sizeof(HotTask) == 64);

  // One slot's decisions, written over the previous slot's in `picks`
  // (the scratch buffer step() and run_until reuse).
  void step_into(ArenaVector<SubtaskRef>& picks);
  // The O(changes) slot body.  kProbed additionally reports the
  // decision events, the ready-set size and the explanation.
  template <bool kProbed>
  void step_fast(ArenaVector<SubtaskRef>& picks);
  // The explanation after the pops: cut, preemptions, idle capacity.
  void explain_denials(Time at, const ArenaVector<SubtaskRef>& picks);
  // `key` is the placed subtask's order key, read before the commit
  // advances the cursor (unused unless packable).
  void note_placement(Time at, SubtaskRef ref, int proc, std::uint64_t key);

  // Bookkeeping for one placement in slot now():
  // head/lag/progress counters plus the successor's calendar entry.
  void commit_placement(const SubtaskRef& ref);
  // Writes one placement cell directly (the unchecked fast-path
  // counterpart of SlotSchedule::place; same invariants by design).
  void place_fast(const HotTask& h, std::int32_t seq, int proc);

  const TaskSystem* sys_;
  SchedProbe probe_;
  PriorityOrder order_;
  PackedKeys keys_;
  ReadyQueue ready_q_;
  std::optional<SlotSchedule> owned_sched_;
  SlotSchedule* sched_;          // owned_sched_ or the external `out`
  StoreBudget<SlotSchedule> budget_;

  ArenaVector<HotTask> hot_;
  ArenaVector<PosRec> pos_;

  // Calendar of availability transitions: task ids by the slot their
  // head becomes available (at most one pending transition per task, so
  // the chunk pool is bounded by the task count).  warp() rebases it.
  SlotBuckets calendar_;

  ArenaVector<SubtaskRef> scratch_picks_;
  // The previous slot's winners' successors, at an explained decision.
  ArenaVector<SubtaskRef> ran_last_;

  std::int64_t now_ = 0;
  std::int64_t remaining_;
};

}  // namespace pfair
