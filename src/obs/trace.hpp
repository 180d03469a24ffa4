// Structured scheduler trace events — the decision-level record the
// paper's arguments (and the overhead accounting of Nelissen et al.)
// are made of: slot/event boundaries, ready sets, priority-comparison
// outcomes, placements, preemptions, migrations and deadline results.
//
// Events are emitted by the simulators into an installed `TraceSink`;
// with no sink installed the hot paths skip all trace work (a single
// predictable branch).  Two sinks ship with the library: a bounded
// in-memory ring buffer (keeps the newest events, counts drops) and a
// streaming JSONL sink (one JSON object per line).  `TeeSink` fans one
// event stream out to two sinks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/time.hpp"
#include "tasks/subtask.hpp"

namespace pfair {

class MetricsRegistry;
class Counter;

/// What happened at one instant of a simulated run.
enum class TraceEventKind : std::uint8_t {
  kSlotBegin,     ///< SFQ slot boundary reached (detail = slot index)
  kEventBegin,    ///< DVQ event instant reached
  kReadySet,      ///< ready set computed (detail = its size)
  kCompare,       ///< priority comparison: subject beat other (aux = rule)
  kPlace,         ///< subject placed on proc (detail = cost/slot)
  kPreempt,       ///< subject was ready but denied a processor
  kMigrate,       ///< subject placed on proc != predecessor's (aux = from)
  kProcFree,      ///< proc free at a DVQ decision instant
  kProcIdle,      ///< capacity left idle after a decision (detail = count)
  kDeadlineHit,   ///< subject completed by its deadline
  kDeadlineMiss,  ///< subject missed (detail = tardiness in ticks)
  kAuditFinding,  ///< invariant violation (aux = Violation::Kind, detail =
                  ///< finding payload; see obs/audit.hpp)
};

[[nodiscard]] const char* to_string(TraceEventKind k);

/// Bitmask over TraceEventKind: bit `1 << kind` set means the sink wants
/// events of that kind.  A sink's mask is a *path-selection hint*, not a
/// filter: a sink may still receive events outside its mask (e.g. from
/// an explain run requested by another sink in a tee).
using TraceEventMask = std::uint32_t;

[[nodiscard]] constexpr TraceEventMask trace_mask_of(TraceEventKind k) {
  return TraceEventMask{1} << static_cast<unsigned>(k);
}

/// Every event kind (the default sink mask).
inline constexpr TraceEventMask kAllTraceEvents =
    (trace_mask_of(TraceEventKind::kAuditFinding) << 1) - 1;

/// The decision-outcome events: slot/event boundaries, placements,
/// migrations, deadline outcomes and audit findings.  The O(changes)
/// fast paths of both simulators emit exactly these.
inline constexpr TraceEventMask kDecisionTraceEvents =
    trace_mask_of(TraceEventKind::kSlotBegin) |
    trace_mask_of(TraceEventKind::kEventBegin) |
    trace_mask_of(TraceEventKind::kPlace) |
    trace_mask_of(TraceEventKind::kMigrate) |
    trace_mask_of(TraceEventKind::kDeadlineHit) |
    trace_mask_of(TraceEventKind::kDeadlineMiss) |
    trace_mask_of(TraceEventKind::kAuditFinding);

/// The "explain" events — why each decision came out the way it did:
/// ready sets, comparison outcomes, ready subtasks denied a processor,
/// free and idle processors.  Only the reference schedulers, which scan
/// and sort every decision, emit them; `schedule_sfq` / `schedule_dvq`
/// (and the `_into` / cyclic variants) route a run whose sink asks for
/// any of them to `schedule_*_reference` — an explain run.  Filtered to
/// kDecisionTraceEvents, an explain run's stream is byte-identical to
/// the fast path's.
inline constexpr TraceEventMask kExplainTraceEvents =
    trace_mask_of(TraceEventKind::kReadySet) |
    trace_mask_of(TraceEventKind::kCompare) |
    trace_mask_of(TraceEventKind::kPreempt) |
    trace_mask_of(TraceEventKind::kProcFree) |
    trace_mask_of(TraceEventKind::kProcIdle);

static_assert((kDecisionTraceEvents & kExplainTraceEvents) == 0 &&
                  (kDecisionTraceEvents | kExplainTraceEvents) ==
                      kAllTraceEvents,
              "every event kind is either a decision or an explain event");

/// Which priority rule decided a comparison (see PriorityOrder::compare).
enum class TieRule : std::uint8_t {
  kDeadline,       ///< rule 1: earlier pseudo-deadline
  kBBit,           ///< rule 2: b-bit (PD/PD2) or PF bit string
  kGroupDeadline,  ///< rule 3: later group deadline (PD/PD2)
  kWeight,         ///< PD refinement: heavier weight
  kTie,            ///< genuine tie under the policy (resolved by id)
};

[[nodiscard]] const char* to_string(TieRule r);

/// Metric names published by trace sinks.
namespace obs_metrics {
/// Events overwritten by a full RingBufferSink (truncated trace).
inline constexpr const char* kTraceDropped = "trace.ring_dropped";
}  // namespace obs_metrics

/// One compact, POD trace record.  Fields not meaningful for a given
/// kind keep their defaults.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSlotBegin;
  std::int32_t aux = 0;          ///< rule index / source processor
  int proc = -1;                 ///< processor involved, if any
  Time at;                       ///< instant of the event
  SubtaskRef subject;            ///< primary subtask, if any
  SubtaskRef other;              ///< comparison loser, if any
  std::int64_t detail = 0;       ///< kind-specific payload (see enum)
};

/// Receiver of trace events.  Implementations must tolerate events from
/// a single simulator thread; distinct simulators may use distinct
/// sinks concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
  /// Called at the end of every simulator step (and at end of run) so
  /// sinks that group events per decision can commit.  Default no-op.
  virtual void flush() {}
  /// The event kinds this sink needs (default: everything).  Queried
  /// when a run starts: a mask within kDecisionTraceEvents keeps the run
  /// on the O(changes) fast path, anything more makes it an explain run
  /// (see wants_explain).
  [[nodiscard]] virtual TraceEventMask event_mask() const {
    return kAllTraceEvents;
  }
};

/// Bounded in-memory sink: keeps the `capacity` newest events and
/// counts how many older ones were overwritten.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);
  /// Same, with the drop count additionally published as the
  /// obs_metrics::kTraceDropped counter in `reg` (which must outlive the
  /// sink) so truncated traces are visible in metrics output.
  RingBufferSink(std::size_t capacity, MetricsRegistry& reg);

  void on_event(const TraceEvent& e) override;

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Events overwritten because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Total events ever received.
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> buf_;
  std::uint64_t total_ = 0;  // head_ = total_ % capacity
  Counter* drops_ = nullptr;
};

/// Streaming sink: one JSON object per event, one per line (JSONL).
/// The stream must outlive the sink.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(&os) {}

  void on_event(const TraceEvent& e) override;
  void flush() override;

  [[nodiscard]] std::uint64_t lines() const { return lines_; }

 private:
  std::ostream* os_;
  std::uint64_t lines_ = 0;
};

/// Fans events out to two sinks (either may be null).
class TeeSink final : public TraceSink {
 public:
  TeeSink(TraceSink* a, TraceSink* b) : a_(a), b_(b) {}

  void on_event(const TraceEvent& e) override {
    if (a_ != nullptr) a_->on_event(e);
    if (b_ != nullptr) b_->on_event(e);
  }
  void flush() override {
    if (a_ != nullptr) a_->flush();
    if (b_ != nullptr) b_->flush();
  }
  /// Union of the children's needs: any child asking for explain events
  /// makes the whole tee an explain run.
  [[nodiscard]] TraceEventMask event_mask() const override {
    TraceEventMask m = 0;
    if (a_ != nullptr) m |= a_->event_mask();
    if (b_ != nullptr) m |= b_->event_mask();
    return m;
  }

 private:
  TraceSink* a_;
  TraceSink* b_;
};

/// True iff `sink` asks for any explain event, i.e. a run feeding it
/// must be an explain run on the reference path.
[[nodiscard]] inline bool wants_explain(const TraceSink* sink) {
  return sink != nullptr && (sink->event_mask() & kExplainTraceEvents) != 0;
}

/// Serializes one event as a single-line JSON object (no newline).
[[nodiscard]] std::string trace_event_json(const TraceEvent& e);

}  // namespace pfair
