// SchedProbe — the single instrumentation point the simulators carry.
//
// A probe bundles an optional TraceSink with optional pre-resolved
// metric handles.  Every hook is inline and starts with a null check,
// so an unconfigured probe costs one predictable branch per call site
// and touches no memory; `enabled()` lets hot loops skip whole
// instrumentation blocks in one test.  Attaching metrics resolves
// registry names once, up front — the per-event path never does a
// string lookup.
//
// Two paths serve a probe, and the hooks are grouped by path:
//   * decision hooks (begin/end_decision, place, migrate, deadline)
//     fire on both;
//   * the O(changes) fast paths of SfqSimulator / DvqSimulator add the
//     counting hook ready_size;
//   * the explain hooks (ready_set, compare_outcome, comparisons,
//     preempt, proc_free, idle) fire only on the reference schedulers,
//     which scan and sort every decision anyway.  A sink asking for any
//     explain event (see wants_explain) gets such an explain run.
// The probe counts no quality: sched.preemptions / .migrations /
// .idle_quanta are filled once per run from the recount of the finished
// schedule (analysis/recount.hpp, add_recount).
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pfair {

/// Metric names registered by `SchedProbe::attach_metrics`.  One
/// definition per counter: sched.preemptions / .migrations /
/// .idle_quanta are QualityCounters (obs/quality.hpp) fields, added by
/// add_recount after a complete run on either path (they read 0 after a
/// truncated one), and sched.comparisons (with its per-decision
/// histogram) is counted only by explain runs, the only path that
/// compares subtasks pairwise.
namespace sched_metrics {
inline constexpr const char* kInvocations = "sched.invocations";
inline constexpr const char* kComparisons = "sched.comparisons";
inline constexpr const char* kPlacements = "sched.placements";
inline constexpr const char* kPreemptions = "sched.preemptions";
inline constexpr const char* kMigrations = "sched.migrations";
inline constexpr const char* kIdleQuanta = "sched.idle_quanta";
inline constexpr const char* kDeadlineMisses = "sched.deadline_misses";
inline constexpr const char* kReadySetSize = "sched.ready_set_size";
inline constexpr const char* kComparesPerDecision =
    "sched.comparisons_per_decision";
inline constexpr const char* kTardinessTicks = "sched.tardiness_ticks";
}  // namespace sched_metrics

class SchedProbe {
 public:
  SchedProbe() = default;

  /// Installs `sink` (null uninstalls).
  void set_sink(TraceSink* sink) { sink_ = sink; }
  /// Resolves the sched.* metric names in `reg` (stable handles).
  void attach_metrics(MetricsRegistry& reg);
  /// Drops the metric handles; counting stops, the registry keeps its
  /// values.
  void detach_metrics() {
    flush_counts();
    *this = SchedProbe(sink_);
  }

  [[nodiscard]] bool tracing() const { return sink_ != nullptr; }
  [[nodiscard]] bool metering() const { return invocations_ != nullptr; }
  /// True iff any hook would do work — hot loops branch on this once.
  [[nodiscard]] bool enabled() const { return tracing() || metering(); }
  [[nodiscard]] TraceSink* sink() const { return sink_; }

  // --- Decision hooks (fast and explain paths) ---

  /// One scheduler invocation (slot boundary / event instant).
  void begin_decision(TraceEventKind kind, Time at, std::int64_t detail = 0) {
    if (invocations_ != nullptr) ++pending_invocations_;
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = kind;
      e.at = at;
      e.detail = detail;
      emit(e);
    }
  }
  /// Commits the decision in grouping sinks (see TraceSink::flush) and,
  /// outside a Batch, flushes the decision's pending counts.
  void end_decision() {
    if (sink_ != nullptr) sink_->flush();
    if (!batching_) flush_counts();
  }

  /// Defers the counting hooks' registry updates (invocations,
  /// placements, on-time outcomes, ready-set samples) from every
  /// decision to the end of the scope: a simulator's run loop opens one
  /// so a whole run costs a handful of atomic updates, not several per
  /// event.  Metrics read after the scope closes are unchanged.
  class Batch {
   public:
    explicit Batch(SchedProbe& probe)
        : probe_(probe), outer_(probe.batching_) {
      probe_.batching_ = true;
    }
    ~Batch() {
      probe_.batching_ = outer_;
      if (!outer_) probe_.flush_counts();
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    SchedProbe& probe_;
    bool outer_;
  };

  /// `detail`: slot index (SFQ) or cost in ticks (DVQ).
  void place(Time at, const SubtaskRef& ref, int proc,
             std::int64_t detail) {
    if (placements_ != nullptr) ++pending_placements_;
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kPlace;
      e.proc = proc;
      e.at = at;
      e.subject = ref;
      e.detail = detail;
      emit(e);
    }
  }

  /// Trace-only: sched.migrations comes from the recount.
  void migrate(Time at, const SubtaskRef& ref, int from, int to) {
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kMigrate;
      e.aux = from;
      e.proc = to;
      e.at = at;
      e.subject = ref;
      emit(e);
    }
  }

  /// Deadline outcome of a completed subtask.
  void deadline(Time at, const SubtaskRef& ref,
                std::int64_t tardiness_ticks) {
    if (tardiness_ != nullptr) {
      if (tardiness_ticks > 0) {
        tardiness_->add(tardiness_ticks);
        deadline_misses_->add();
      } else {
        ++pending_on_time_;
      }
    }
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = tardiness_ticks > 0 ? TraceEventKind::kDeadlineMiss
                                   : TraceEventKind::kDeadlineHit;
      e.at = at;
      e.subject = ref;
      e.detail = tardiness_ticks;
      emit(e);
    }
  }

  // --- Counting hooks (metrics only, no events) ---

  /// Size of one decision's ready set, read off the fast path's heap.
  void ready_size(std::int64_t n) {
    if (ready_size_ != nullptr) pending_ready_sizes_.add(n);
  }

  // --- Explain hooks (reference schedulers only) ---

  /// The ready set a decision scanned (also feeds the size histogram).
  void ready_set(Time at, std::int64_t n) {
    ready_size(n);
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kReadySet;
      e.at = at;
      e.detail = n;
      emit(e);
    }
  }

  /// Outcome of one priority comparison (trace-only; counting goes
  /// through comparisons()).
  void compare_outcome(Time at, const SubtaskRef& winner,
                       const SubtaskRef& loser, TieRule rule) {
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kCompare;
      e.aux = static_cast<std::int32_t>(rule);
      e.at = at;
      e.subject = winner;
      e.other = loser;
      emit(e);
    }
  }
  /// `n` comparisons performed by one decision.
  void comparisons(std::int64_t n) {
    if (comparisons_ != nullptr) comparisons_->add(n);
    if (compares_per_decision_ != nullptr) compares_per_decision_->add(n);
  }

  /// A ready subtask denied a processor (trace-only; sched.preemptions
  /// comes from the recount).
  void preempt(Time at, const SubtaskRef& ref) {
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kPreempt;
      e.at = at;
      e.subject = ref;
      emit(e);
    }
  }

  /// A processor free at a DVQ decision instant (trace-only).
  void proc_free(Time at, int proc) {
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kProcFree;
      e.proc = proc;
      e.at = at;
      emit(e);
    }
  }

  /// `count` processors left without work after a decision (trace-only;
  /// sched.idle_quanta comes from the recount).
  void idle(Time at, std::int64_t count) {
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kProcIdle;
      e.at = at;
      e.detail = count;
      emit(e);
    }
  }

 private:
  explicit SchedProbe(TraceSink* sink) : sink_(sink) {}
  void emit(const TraceEvent& e) { sink_->on_event(e); }
  void flush_counts() {
    if (pending_invocations_ != 0) {
      invocations_->add(pending_invocations_);
      pending_invocations_ = 0;
    }
    if (pending_placements_ != 0) {
      placements_->add(pending_placements_);
      pending_placements_ = 0;
    }
    if (pending_on_time_ != 0) {
      tardiness_->add_repeated(0, pending_on_time_);
      pending_on_time_ = 0;
    }
    if (!pending_ready_sizes_.empty()) {
      ready_size_->merge_from(pending_ready_sizes_);
      pending_ready_sizes_.clear();
    }
  }

  TraceSink* sink_ = nullptr;
  Counter* invocations_ = nullptr;
  Counter* comparisons_ = nullptr;
  Counter* placements_ = nullptr;
  Counter* deadline_misses_ = nullptr;
  Histogram* ready_size_ = nullptr;
  Histogram* compares_per_decision_ = nullptr;
  Histogram* tardiness_ = nullptr;
  // Pending counts, flushed by end_decision (or by the enclosing Batch):
  // one atomic update per decision or per run instead of one per
  // placement or event.
  std::int64_t pending_invocations_ = 0;
  std::int64_t pending_placements_ = 0;
  std::int64_t pending_on_time_ = 0;
  HistogramBatch pending_ready_sizes_;
  bool batching_ = false;
};

}  // namespace pfair
