// Stepwise DVQ simulation — the event-granularity counterpart of
// SfqSimulator.  One `step()` processes the next event instant: it
// retires completions, computes the new ready set, and hands every free
// processor to the highest-priority ready subtask (work-conserving,
// Sec. 3).  `schedule_dvq` is implemented on top of this class, keeping
// the batch and incremental paths behaviourally identical.
//
// Per-event cost is O(changes), not O(tasks): the old bag of bare
// timestamps (one duplicate push per processor completion and per
// readiness advance) is replaced by two exact queues — completions
// keyed (time, processor) and pending readiness keyed (time, subtask),
// each unique by construction — plus a free-processor min-heap and a
// ready heap ordered by packed 64-bit priority keys (see
// sched/packed_key.hpp).  A decision touches only the processors that
// completed, the subtasks that became ready, and the winners it places.
// Schedules are bit-identical to the retained naive reference
// (`schedule_dvq_reference`).
//
// A probe (decision-mask trace sink and/or metrics) rides on the same
// fast path: decision events are reported as placements commit,
// sched.ready_set_size is the ready heap's size at each instant with a
// free processor, and the quality metrics come from the incremental
// QualityCounters accounting (note_quality_event).  The explain events
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
#include "obs/quality.hpp"
#include "sched/packed_key.hpp"
#include "sched/priority.hpp"
#include "sched/ready_queue.hpp"

namespace pfair {

struct DvqOptions;       // dvq/dvq_scheduler.hpp

/// Incremental event-driven DVQ scheduler.  The task system and yield
/// model must outlive the simulator.
class DvqSimulator {
 public:
  /// With `arena`, the working state (key tables, ready heap, event
  /// queues, per-task/per-processor records) is bump-allocated there
  /// (the arena must be fresh or reset and outlive the simulator).
  DvqSimulator(const TaskSystem& sys, const YieldModel& yields,
               Policy policy = Policy::kPd2, Arena* arena = nullptr);

  /// True once every subtask has been placed (no events can remain that
  /// would place more work).
  [[nodiscard]] bool done() const { return remaining_ == 0; }
  /// The instant of the most recently processed event (Time() initially).
  [[nodiscard]] Time now() const { return now_; }
  /// Whether any event is pending (false also implies nothing more can
  /// be scheduled — on a complete run, after done()).
  [[nodiscard]] bool has_events() const {
    return !completions_.empty() || !pending_.empty();
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
    return head_[static_cast<std::size_t>(task)];
  }
  [[nodiscard]] Time ready_time_of(std::int64_t task) const {
    return ready_at_[static_cast<std::size_t>(task)];
  }
  [[nodiscard]] bool proc_busy(std::int64_t proc) const {
    return procs_[static_cast<std::size_t>(proc)].busy;
  }
  [[nodiscard]] Time proc_busy_until(std::int64_t proc) const {
    return procs_[static_cast<std::size_t>(proc)].busy_until;
  }

  /// Fast-forwards `cycles` repetitions of a steady-state cycle of
  /// `cycle_slots` slots detected at slot boundary `boundary_slot` (all
  /// events < boundary processed, none at or after), in which task k
  /// starts exactly `cycle_allocs[k]` subtasks.  Counters and event
  /// times jump by the cycle length; the pending/ready partition is
  /// rebuilt relative to the shifted boundary.  Callers
  /// (dvq/dvq_cycle.cpp) must have proved the recurrence via
  /// fingerprints.  Requires an uninstrumented simulator.
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
  /// Accumulates scheduler-quality counters (obs/quality.hpp) into `q`
  /// incrementally, one O(changes) update per event — placements are
  /// unaffected.  Must be attached before the first step; `q` must
  /// outlive the simulator.  analysis/recount.hpp recomputes the same
  /// numbers offline.
  void set_quality(QualityCounters* q);

 private:
  /// The earliest unprocessed event instant; requires has_events().
  [[nodiscard]] Time next_event_time() const;

  // One event instant's decisions appended into `started` (not cleared;
  // reused as a scratch buffer by run_until).
  void step_into(std::vector<SubtaskRef>& started);
  // The O(changes) decision body.  kProbed additionally reports the
  // decision events and the ready-set size to the probe.
  template <bool kProbed>
  void step_fast(std::vector<SubtaskRef>& started, Time t);
  void note_placement(Time t, SubtaskRef ref, int proc, Time c);
  // Folds one event instant's decisions into quality_ and the probe's
  // quality metrics: `free0` is the free-processor count before
  // dispatch, `started[base..)` the placements made at this instant
  // (already committed).
  void note_quality_event(std::size_t free0,
                          const std::vector<SubtaskRef>& started,
                          std::size_t base);
  // Points quality_ at `q` (null: off) and resets the per-processor
  // occupancy.
  void start_quality(QualityCounters* q);

  // Bookkeeping for one placement at instant `t`:
  // records the placement, books the completion event, and enqueues the
  // successor's readiness.  Returns the charged cost.
  Time commit_placement(const SubtaskRef& ref, Time t, int proc);

  const TaskSystem* sys_;
  const YieldModel* yields_;
  PriorityOrder order_;
  PackedKeys keys_;
  ReadyQueue ready_q_;
  SchedProbe probe_;
  DvqSchedule sched_;

  struct Proc {
    bool busy = false;
    Time busy_until;
  };
  ArenaVector<Proc> procs_;
  ArenaVector<std::int64_t> head_;
  ArenaVector<Time> ready_at_;

  // Exact event queues (min-heaps via std::push_heap/pop_heap): one
  // completion per busy processor, one pending entry per task awaiting
  // its head's readiness instant — no duplicate timestamps anywhere.
  struct Completion {
    Time at;
    std::int32_t proc;
  };
  struct Pending {
    Time at;
    SubtaskRef ref;
  };
  ArenaVector<Completion> completions_;
  ArenaVector<Pending> pending_;
  ArenaVector<std::int32_t> free_procs_;  // min-heap of idle processors

  std::vector<SubtaskRef> scratch_started_;
  Time now_;
  std::int64_t remaining_;

  // Quality accounting (null = off): the task each processor last ran.
  // With metrics but no caller-supplied counters, quality_ points at
  // metric_quality_ (see SfqSimulator).
  QualityCounters* quality_ = nullptr;
  QualityCounters metric_quality_;
  std::vector<std::int32_t> proc_task_;
};

}  // namespace pfair
