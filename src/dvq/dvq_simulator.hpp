// Stepwise DVQ simulation — the event-granularity counterpart of
// SfqSimulator.  One `step()` processes the next event instant: it
// retires completions, computes the new ready set, and hands every free
// processor to the highest-priority ready subtask (work-conserving,
// Sec. 3).  `schedule_dvq` is implemented on top of this class, keeping
// the batch and incremental paths behaviourally identical.
//
// Per-event cost is O(changes), not O(tasks).  A task's next subtask
// becomes ready at the later of its slot-aligned eligibility and its
// predecessor's completion, both known the moment the predecessor is
// placed, so no readiness instant ever needs a priority queue:
//   * eligibility strictly after the completion: the task joins the
//     slot calendar's bucket for that slot (a SlotBuckets queue,
//     sched/slot_buckets.hpp, as SfqSimulator's calendar; drained when
//     the event loop reaches the slot boundary);
//   * otherwise: the completing processor holds the task and hands its
//     head to the ready heap when that completion retires.
// The next event is the earlier of the first pending completion (one
// per busy processor, kept in time order: a new one lies within a
// quantum of the current instant, so it is inserted from the back, and
// under fixed yields it always appends) and the first non-empty calendar
// slot.  Idle processors sit in a bitmap popped lowest id first; the
// ready set is the packed-key heap of sched/ready_queue.hpp.
//
// Holman & Anderson's staggered model (dvq/staggered.hpp) adds one
// release rule (`staggered_grid`): processor k takes work only at its
// boundaries n + floor(k * 2^20 / M) ticks.  An earlier completion still
// hands its successor to the ready heap, but the processor stays booked
// until its next boundary; one nothing was ready for waits a slot.
//
// As in SfqSimulator, everything a placement touches per task lives in
// one 64-byte hot record — the division-free head cursor of
// sched/positions.hpp (head, subtask count, the head's packed key and
// eligibility position), the readiness instant and where the head
// waits — and placements are written straight into the
// DvqSchedule's cells and order log (the schedule befriends the
// simulator).  The schedule grows through the same StoreBudget
// (sched/positions.hpp) as SfqSimulator's: it stores the seqs eligible
// before the slots simulated so far, and a warp leaves the skipped seqs
// unstored.  Schedules are bit-identical to the retained naive reference
// (`schedule_dvq_reference`).
//
// A probe (decision-mask trace sink and/or metrics) rides on the same
// fast path: decision events are reported as placements commit,
// sched.ready_set_size is the ready heap's size at each instant with a
// free processor.  As in SfqSimulator, quality counts and their metrics
// come from the recount of the finished schedule (add_recount,
// analysis/recount.hpp), not from the event loop.  The explain events
// (kExplainTraceEvents) come only from `schedule_dvq_reference`;
// set_trace_sink rejects a sink asking for them, and `schedule_dvq`
// routes such a sink there.
#pragma once

#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "dvq/dvq_schedule.hpp"
#include "dvq/yield.hpp"
#include "obs/probe.hpp"
#include "sched/packed_key.hpp"
#include "sched/positions.hpp"
#include "sched/priority.hpp"
#include "sched/ready_queue.hpp"
#include "sched/slot_buckets.hpp"

namespace pfair {

/// Incremental event-driven DVQ scheduler.  The task system and yield
/// model must outlive the simulator.
class DvqSimulator {
 public:
  /// With `arena`, the working state (key tables, ready heap, calendar,
  /// completions, per-task/per-processor records) is bump-allocated
  /// there (the arena must be fresh or reset and outlive the simulator).
  /// With `staggered_grid`, processors take work only at their staggered
  /// boundaries (header note); such a simulator refuses observers and warp.
  DvqSimulator(const TaskSystem& sys, const YieldModel& yields,
               Policy policy = Policy::kPd2, Arena* arena = nullptr,
               bool staggered_grid = false);

  /// True once every subtask has been placed (no events can remain that
  /// would place more work).
  [[nodiscard]] bool done() const { return remaining_ == 0; }
  /// The instant of the most recently processed event (Time() initially).
  [[nodiscard]] Time now() const { return now_; }
  /// Whether any event is pending (false also implies nothing more can
  /// be scheduled — on a complete run, after done()).
  [[nodiscard]] bool has_events() const {
    return comp_head_ < completions_.size() || !calendar_.empty();
  }

  /// Processes the next event instant; returns the subtasks started
  /// there (possibly none — e.g. a completion with nothing ready).
  std::vector<SubtaskRef> step();

  /// Runs until done() or the event queue drains or `time_limit` is
  /// reached (events at or beyond the limit are not processed).
  /// Attached metrics reach the registry when it returns (counts are
  /// batched per call; step() flushes per decision).
  void run_until(Time time_limit);

  /// Processors currently idle (valid between steps).
  [[nodiscard]] std::vector<int> idle_processors() const;

  /// The system being scheduled.
  [[nodiscard]] const TaskSystem& system() const { return *sys_; }
  /// Raw per-task / per-processor state, for cycle fingerprints
  /// (dvq/dvq_cycle.hpp).
  [[nodiscard]] std::int64_t head_of(std::int64_t task) const {
    return hot_[static_cast<std::size_t>(task)].head;
  }
  [[nodiscard]] Time ready_time_of(std::int64_t task) const {
    return Time::ticks(hot_[static_cast<std::size_t>(task)].ready_at);
  }
  [[nodiscard]] bool proc_busy(std::int64_t proc) const {
    const auto p = static_cast<std::size_t>(proc);
    return (free_bits_[p / 64] >> (p % 64) & 1) == 0;
  }
  [[nodiscard]] Time proc_busy_until(std::int64_t proc) const {
    return procs_[static_cast<std::size_t>(proc)].busy_until;
  }

  /// Fast-forwards `cycles` repetitions of a steady-state cycle of
  /// `cycle_slots` slots detected at slot boundary `boundary_slot` (all
  /// events < boundary processed, none at or after), in which task k
  /// starts exactly `cycle_allocs[k]` subtasks.  Counters and event
  /// times jump by the cycle length; the calendar and the ready heap are
  /// rebuilt, each head rejoining where it waited at the boundary (the
  /// calendar, a processor's hand-off, or the ready heap).  The caller,
  /// the shared fast-forward driver (detail::fast_forward,
  /// sched/fast_forward.hpp),
  /// has proved the recurrence via fingerprints.  The skipped seqs are
  /// left unstored (they read as unplaced).  Requires an uninstrumented
  /// simulator.
  void warp(std::int64_t cycles, std::int64_t cycle_slots,
            const std::vector<std::int64_t>& cycle_allocs,
            std::int64_t boundary_slot);

  [[nodiscard]] const DvqSchedule& schedule() const { return sched_; }
  [[nodiscard]] DvqSchedule take_schedule() && { return std::move(sched_); }

  /// Installs a structured trace sink (not owned; null uninstalls) — at
  /// any step; placements are unaffected.  The sink's event_mask() must
  /// fit in kDecisionTraceEvents: explain events (and with them the
  /// DvqDecisionSink log) come from schedule_dvq_reference, which
  /// schedule_dvq routes such a sink to (a ContractViolation here).
  void set_trace_sink(TraceSink* sink);
  /// Accumulates sched.* metrics (see obs/probe.hpp) into `reg`, which
  /// must outlive the simulator or the next detach_metrics().  May be
  /// attached mid-run: counting starts at the next step.
  void attach_metrics(MetricsRegistry& reg);
  void detach_metrics();

 private:
  /// Where a task's head waits until it joins the ready heap.
  enum Wait : std::int32_t {
    kReady = 0,     // in the ready heap (or placed: the task is done)
    kCalendar = 1,  // in the calendar bucket of its eligibility slot
    kHandOff = 2,   // on the processor running its predecessor
  };

  /// All mutable per-task scheduling state, one cache line per task:
  /// the head cursor (sched/positions.hpp), the head's readiness instant
  /// and where it waits.
  struct alignas(64) HotTask : HeadCursor {
    std::int64_t ready_at;    // head's readiness instant, ticks
    std::int32_t wait;        // Wait
  };
  static_assert(sizeof(HotTask) == 64);

  struct Proc {
    Time busy_until;  // when it next takes work (staggered: a boundary)
    std::int32_t hand_off = -1;  // task whose head readies at completion
  };
  struct Completion {
    Time at;
    std::int32_t proc;
  };

  /// The earliest unprocessed event instant; requires has_events().
  [[nodiscard]] Time next_event_time() const;

  // One event instant `t`'s decisions appended into `started` (not
  // cleared; reused as a scratch buffer by run_until).
  // kGrid is grid_, a template parameter so DVQ events never test it.
  template <bool kGrid>
  void step_into(std::vector<SubtaskRef>& started, Time t);
  // The O(changes) decision body.  kProbed additionally reports the
  // decision events and the ready-set size to the probe.
  template <bool kProbed, bool kGrid>
  void step_fast(std::vector<SubtaskRef>& started, Time t);
  // `key` as in SfqSimulator::note_placement.
  void note_placement(Time t, SubtaskRef ref, int proc, Time c,
                      std::uint64_t key);

  // Bookkeeping for one placement at instant `t`: writes the schedule
  // cell and log entry, books the completion, and routes the
  // successor's readiness to the calendar or the processor's hand-off.
  // Returns the charged cost.
  template <bool kGrid>
  Time commit_placement(const SubtaskRef& ref, Time t, int proc);
  // Puts task k's head in the calendar bucket of `slot`.
  void wait_in_calendar(std::int32_t k, std::int64_t slot);
  // Pushes task k's head into the ready heap.
  void make_ready(std::int32_t k);
  [[nodiscard]] int pop_free_proc();
  void add_completion(Completion c);
  void free_proc(std::int32_t proc);
  void book_until(std::int32_t proc, Time at);

  const TaskSystem* sys_;
  const YieldModel* yields_;
  PriorityOrder order_;
  PackedKeys keys_;
  ReadyQueue ready_q_;
  SchedProbe probe_;
  DvqSchedule sched_;
  StoreBudget<DvqSchedule> budget_;
  bool grid_;  // staggered_grid

  ArenaVector<HotTask> hot_;
  ArenaVector<PosRec> pos_;
  ArenaVector<Proc> procs_;
  // Busy processors' completions in ascending time order, the live ones
  // at [comp_head_, size): one entry per busy processor (see the header
  // note for why insertion from the back is cheap).
  ArenaVector<Completion> completions_;
  std::size_t comp_head_ = 0;
  // Idle processors, bit p of word p / 64; free_count_ bits set.
  ArenaVector<std::uint64_t> free_bits_;
  std::size_t free_count_ = 0;

  // Calendar of slot-aligned readiness instants: task ids by the slot
  // their head becomes ready.  warp() rebases it.
  SlotBuckets calendar_;

  std::vector<SubtaskRef> scratch_started_;
  Time now_;
  std::int64_t remaining_;
};

}  // namespace pfair
