// Online invariant auditing — the paper's claims as an always-on
// observability signal.
//
// `InvariantAuditor` is a TraceSink: attach it to a simulator (directly,
// or behind a TeeSink) and it incrementally checks, per event, the
// properties the offline analyses in src/analysis verify at end of run:
//
//   * no processor over-allocation (per-slot load <= M in the SFQ model,
//     no double-booked processor in the DVQ model);
//   * every placement inside its subtask window — never before e(T_i)
//     (Eq. (6)), completing by d(T_i) plus the tardiness allowance
//     (b-bit semantics are carried by the window ends of Eqs. (2)-(4):
//     an overlapping b=1 window still ends exclusively at d);
//   * subtasks of one task in sequence and never in parallel;
//   * per-task lag within the classical Pfair bounds -1 < lag < 1
//     (exact Rational arithmetic; meaningful — and auto-enabled — only
//     for synchronous periodic systems, see AuditOptions::lag);
//   * tardiness <= 1 quantum under DVQ (Theorem 3; the allowance
//     defaults to one quantum in the DVQ model, zero in the SFQ model).
//
// Cost is O(changes) per decision: placements touch O(1) state each,
// and the lag upper bound uses a lazy min-heap of per-task critical
// times, so slots where nothing can go wrong cost O(1).  The auditor's
// event_mask() fits inside kDecisionTraceEvents, so attaching *only* an
// auditor keeps the simulators on their fast paths; it also tolerates
// the full stream of an explain run (extra kinds are ignored),
// including streams replayed from `pfairsim --trace` JSONL files.
//
// Violations surface three ways: an `AuditFinding` record (kept up to
// AuditOptions::max_findings), a `kAuditFinding` trace event forwarded
// to an optional downstream sink, and `audit.findings[.<kind>]` metric
// counters.  A finding callback lets a CounterexampleRecorder (see
// obs/capture.hpp) snapshot a replayable bundle on first violation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/validity.hpp"
#include "core/rational.hpp"
#include "core/time.hpp"
#include "obs/trace.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

class MetricsRegistry;

/// Metric names published by the auditor.
namespace audit_metrics {
/// Total invariant violations ("audit.findings.<kind>" per kind).
inline constexpr const char* kFindings = "audit.findings";
}  // namespace audit_metrics

/// One invariant violation observed online.
struct AuditFinding {
  Violation::Kind kind = Violation::Kind::kUnscheduled;
  SubtaskRef ref;       ///< subtask involved (task may be all that's known)
  Time at;              ///< instant of the triggering event
  std::string detail;   ///< human-readable explanation

  [[nodiscard]] std::string str() const;
};

struct AuditOptions {
  /// Deadline slack before a completion counts as a violation.  Unset:
  /// zero in the SFQ model, one quantum in the DVQ model (Theorem 3).
  std::optional<Time> tardiness_allowance;

  /// The classical lag bounds are a statement about synchronous periodic
  /// systems; IS/GIS arrivals and early releases leave (-1, 1) legally.
  /// kAuto enables the lag checks only when every task is synchronous
  /// periodic with eligibility equal to release throughout (and only in
  /// the SFQ model — DVQ is covered by the tardiness bound instead).
  enum class Lag { kAuto, kOn, kOff };
  Lag lag = Lag::kAuto;

  /// Findings beyond this many are counted (and emitted downstream) but
  /// not stored.
  std::size_t max_findings = 64;
};

/// Incremental invariant checker over a scheduler trace stream.
/// The task system must outlive the auditor.
class InvariantAuditor final : public TraceSink {
 public:
  explicit InvariantAuditor(const TaskSystem& sys, AuditOptions opts = {});

  void on_event(const TraceEvent& e) override;
  /// Only the decision-outcome subset — attaching just an auditor keeps
  /// the simulator on its O(changes) fast path.
  [[nodiscard]] TraceEventMask event_mask() const override;

  /// Publishes audit.findings counters into `reg` (not owned).
  void attach_metrics(MetricsRegistry& reg) { registry_ = &reg; }
  /// Receives one kAuditFinding trace event per violation (not owned;
  /// aux = static_cast<int>(Violation::Kind), subject = the subtask).
  void set_downstream(TraceSink* sink) { downstream_ = sink; }
  /// Called synchronously on every violation (after metrics/downstream).
  void set_finding_callback(std::function<void(const AuditFinding&)> cb) {
    callback_ = std::move(cb);
  }

  /// Stored findings, oldest first (capped at AuditOptions::max_findings).
  [[nodiscard]] const std::vector<AuditFinding>& findings() const {
    return findings_;
  }
  /// Total violations observed, including unstored ones.
  [[nodiscard]] std::int64_t total_findings() const { return total_; }
  [[nodiscard]] bool clean() const { return total_ == 0; }

  /// Which model the stream turned out to be ("sfq", "dvq", or "?"
  /// before the first slot/event boundary).
  [[nodiscard]] const char* model() const;

 private:
  enum class Model { kUnknown, kSfq, kDvq };
  struct LagEntry {
    std::int64_t t_crit;  // first boundary where lag(T) >= 1 can hold
    std::int32_t task;
    std::int64_t alloc;   // allocation count when the entry was pushed
  };

  void report(Violation::Kind kind, SubtaskRef ref, Time at,
              std::string detail);
  void handle_place(const TraceEvent& e);
  void handle_deadline(const TraceEvent& e);
  void check_lag_upper(std::int64_t slot);
  [[nodiscard]] Time allowance() const;
  [[nodiscard]] std::int64_t lag_critical_slot(std::int32_t task,
                                               std::int64_t alloc) const;
  void push_lag_entry(std::int32_t task, std::int64_t t_crit,
                      std::int64_t alloc);

  const TaskSystem* sys_;
  AuditOptions opts_;
  Model model_ = Model::kUnknown;
  bool lag_enabled_ = false;
  bool lag_seeded_ = false;

  // Per-task incremental state.  Weights are kept as raw numerator /
  // denominator pairs so the per-placement lag bounds are integer
  // comparisons (e*t - alloc*p vs +-p), not Rational gcd arithmetic;
  // Rationals appear only in (cold) finding messages.
  std::vector<std::int64_t> expected_seq_;
  std::vector<Time> prev_completion_;
  std::vector<bool> has_placement_;
  std::vector<std::int64_t> alloc_;
  std::vector<std::int64_t> we_, wp_;

  // Per-processor occupancy.
  std::vector<Time> busy_until_;

  // Lazy min-heap of lag critical times (std::push_heap/pop_heap).
  std::vector<LagEntry> lag_heap_;

  std::vector<AuditFinding> findings_;
  std::int64_t total_ = 0;
  MetricsRegistry* registry_ = nullptr;
  TraceSink* downstream_ = nullptr;
  std::function<void(const AuditFinding&)> callback_;
};

}  // namespace pfair
