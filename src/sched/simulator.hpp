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
// decision drains one bucket and pops at most M winners.  The schedule
// is bit-identical to the retained naive reference
// (`schedule_sfq_reference`), which re-scans and re-sorts everything —
// the A/B equivalence suite asserts this across policies and workloads.
//
// The hot path is data-oriented.  All per-task mutable
// state a placement touches lives in one 64-byte HotTask record (head,
// last slot, the head's precomputed priority key, and the in-period
// cursor that advances it without division); the per-position
// constants (key base/step, eligibility base) sit in a flat PosRec
// table shared by flyweight jobs; the ready set is the SoA 8-ary SIMD
// heap of ready_queue.hpp; calendar buckets are contiguous 64-byte
// chunks recycled through a freelist, walked with explicit prefetch of
// the hot records they name; and schedule cells are written through a
// raw pointer (SlotSchedule befriends the simulator) instead of the
// checked `place`.  With an Arena supplied, every piece of working
// state is bump-allocated, so repeated schedule calls allocate nothing
// in steady state.  None of this changes placements: keys realize the
// same strict total order, so the A/B suite pins bit-identicality.
//
// A probe (decision-mask trace sink and/or metrics) rides on the same
// fast path: the decision events are reported as placements commit,
// sched.ready_set_size is the ready heap's size (staged entries
// included) at each decision, and the quality metrics come from the
// incremental QualityCounters accounting (note_quality).  There is no
// second decision body.  The explain events (kExplainTraceEvents) come
// only from `schedule_sfq_reference`; set_trace_sink rejects a sink
// asking for them, and `schedule_sfq` routes such a sink there.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/arena.hpp"
#include "core/rational.hpp"
#include "obs/probe.hpp"
#include "obs/quality.hpp"
#include "sched/packed_key.hpp"
#include "sched/priority.hpp"
#include "sched/ready_queue.hpp"
#include "sched/schedule.hpp"

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
  /// `sys` and hold no placements (see SlotSchedule::clear_placements)
  /// — and take_schedule() must not be called.
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
  [[nodiscard]] std::int64_t allocated_of(std::int64_t task) const {
    // Every head advance is an allocation (and vice versa), so the two
    // counters are one.
    return hot_[static_cast<std::size_t>(task)].head;
  }

  /// Fast-forwards `cycles` repetitions of a detected steady-state cycle
  /// of `cycle_slots` slots in which task k places exactly
  /// `cycle_allocs[k]` subtasks: counters jump, the availability calendar
  /// and ready heap are rebuilt (head keys recomputed in one SIMD batch),
  /// and simulation resumes at now() + cycles * cycle_slots as if every
  /// skipped slot had been stepped.  Callers
  /// (sched/compressed_schedule.cpp) are responsible for having *proved*
  /// the recurrence via fingerprints; the skipped placements are never
  /// materialized here.  Requires an uninstrumented simulator at a slot
  /// boundary.
  void warp(std::int64_t cycles, std::int64_t cycle_slots,
            const std::vector<std::int64_t>& cycle_allocs);

  /// Installs a structured trace sink (not owned; may be null to
  /// uninstall) — at any step; placements are unaffected.  The sink's
  /// event_mask() must fit in kDecisionTraceEvents: explain events come
  /// from schedule_sfq_reference (a ContractViolation otherwise).
  void set_trace_sink(TraceSink* sink);
  /// Accumulates sched.* metrics (see obs/probe.hpp) into `reg`, which
  /// must outlive the simulator or the next detach_metrics().  May be
  /// attached mid-run: counting starts at the next step.
  void attach_metrics(MetricsRegistry& reg);
  void detach_metrics();
  /// Accumulates scheduler-quality counters (obs/quality.hpp) into `q`
  /// incrementally, one O(M) update per slot — placements are
  /// unaffected.  Must be attached before the first step; `q` must
  /// outlive the simulator.  analysis/recount.hpp recomputes the same
  /// numbers offline.
  void set_quality(QualityCounters* q);

 private:
  /// All mutable per-task scheduling state, one cache line per task.
  /// The flyweight cursor (rem, job) tracks head = job * e + rem so a
  /// placement advances to the successor's key and eligibility with no
  /// division: next_key = pos[pos_off + rem].key_base + job * key_step,
  /// eligibility = pos[...].elig_base + job * elig_p.
  struct alignas(64) HotTask {
    std::uint64_t next_key;   // order key of subtask `head` (packed mode)
    std::int64_t last_slot;   // most recent placement slot; -1 if none
    std::int64_t elig_p;      // eligibility shift per job (0: job fixed 0)
    std::int64_t cell_base;   // flat schedule-cell index of subtask 0
    std::int32_t head;        // next unscheduled seq
    std::int32_t count;       // total subtasks
    std::int32_t rem;         // head % e
    std::int32_t job;         // head / e
    std::int32_t e;           // position period (see PosRec)
    std::int32_t pos_off;     // first PosRec of this task
  };
  static_assert(sizeof(HotTask) == 64);

  /// Immutable per-position constants.  A task owns min(e, count)
  /// consecutive records; e is the smallest period that makes *both*
  /// the packed key and the eligibility time affine in the job index
  /// (the reduced window period normally; the raw weight numerator for
  /// early-release tasks, whose job boundaries follow the raw (e, p);
  /// the subtask count for materialized tasks, pinning job = 0).
  struct PosRec {
    std::uint64_t key_base;
    std::uint64_t key_step;
    std::int64_t elig_base;
  };

  /// One calendar bucket fragment: up to 14 task ids in one cache line,
  /// chained by chunk index, recycled through a freelist.
  struct BucketChunk {
    static constexpr std::int32_t kCap = 14;
    std::int32_t count;
    std::int32_t next;  // next chunk index or -1
    std::int32_t tasks[kCap];
  };
  static_assert(sizeof(BucketChunk) == 64);

  // One slot's decisions appended into `picks` (not cleared; reused as a
  // scratch buffer by run_until so the hot loop never reallocates).
  void step_into(ArenaVector<SubtaskRef>& picks);
  // The O(changes) slot body.  kProbed additionally reports the
  // decision events and the ready-set size to the probe.
  template <bool kProbed>
  void step_fast(ArenaVector<SubtaskRef>& picks);
  void note_placement(Time at, SubtaskRef ref, int proc);
  // Folds one slot's decisions (already committed; now_ advanced) into
  // quality_ and the probe's quality metrics.  `picks[r]` ran on
  // processor r.
  void note_quality(const SubtaskRef* picks, std::size_t count);
  // Points quality_ at `q` (null: off) and resets the incremental state;
  // mid-run, last slot's occupants are re-derived from the counters.
  void start_quality(QualityCounters* q);

  // Bookkeeping for one placement in slot now():
  // head/lag/progress counters plus the successor's calendar entry.
  void commit_placement(const SubtaskRef& ref);
  // Marks task `task`'s current head available from `slot` on.
  void mark_available(std::int32_t task, std::int64_t slot);
  // Moves every head that became available by now() into the ready heap.
  void drain_calendar();
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
  SlotSchedule::Cell* cells_;    // sched_'s raw cell block

  ArenaVector<HotTask> hot_;
  ArenaVector<PosRec> pos_;

  // Calendar of availability transitions: bucket_head_[slot - cal_base_]
  // chains BucketChunks (at most one pending transition per task, so the
  // pool high-water is bounded by the task count).  warp() rebases it.
  ArenaVector<std::int32_t> bucket_head_;
  std::int64_t cal_base_ = 0;
  ArenaVector<BucketChunk> chunks_;
  std::int32_t free_chunk_ = -1;
  std::int64_t drained_upto_ = -1;

  ArenaVector<SubtaskRef> scratch_picks_;
  // Warp batch-recompute scratch (SIMD affine_keys operands).
  ArenaVector<std::uint64_t> warp_base_;
  ArenaVector<std::uint64_t> warp_step_;
  ArenaVector<std::uint64_t> warp_job_;
  ArenaVector<std::uint64_t> warp_key_;
  ArenaVector<std::int32_t> warp_task_;

  std::int64_t now_ = 0;
  std::int64_t remaining_;
  bool packed_;

  // Quality accounting (null = off): the task occupying each processor
  // at the last slot that used it, and the tasks placed last slot (the
  // only preemption candidates).  With metrics but no caller-supplied
  // counters, quality_ points at metric_quality_ so sched.preemptions /
  // .migrations / .idle_quanta share QualityCounters' definitions.
  QualityCounters* quality_ = nullptr;
  QualityCounters metric_quality_;
  std::vector<std::int32_t> proc_task_;
  std::vector<std::int32_t> prev_tasks_;
};

}  // namespace pfair
