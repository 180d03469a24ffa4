// Replayable counterexample capture — `pfair-capture-v1`.
//
// When the invariant auditor (obs/audit.hpp) observes a violation, a
// `CounterexampleRecorder` snapshots everything needed to reproduce it
// offline: the task system (as explicit GIS subtask specs, exact for
// every task kind), the scheduler model and policy, the yield model
// parameters, the provenance seed, the finding itself, and a bounded
// prefix of the trace leading up to it.  The bundle serializes to a
// single JSON document (schema "pfair-capture-v1").
//
// `replay_bundle` re-runs the bundle through the *reference* simulators
// (sched/reference_scheduler.hpp, dvq/reference_scheduler.hpp) and maps
// the offline validity/lag checkers' verdicts back to findings — an
// independent implementation path from the online auditor, so a bundle
// that reproduces is corroborated, not merely re-observed.
// `shrink_bundle` is a greedy delta-debugging pass: drop tasks one at a
// time, then truncate the horizon, keeping each step only if the same
// kind of violation still reproduces.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dvq/yield.hpp"
#include "obs/audit.hpp"
#include "sched/priority.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

/// Everything needed to reproduce one audited run.
struct CaptureBundle {
  /// Yield model parameters (DVQ bundles only; "full" otherwise).
  struct YieldSpec {
    std::string kind = "full";  ///< full | fixed | bern | scripted
    std::int64_t delta_ticks = 0;          ///< fixed: yield before quantum end
    std::uint64_t seed = 0;                ///< bern
    std::int64_t num = 0, den = 1;         ///< bern: early-yield probability
    std::int64_t min_ticks = 0, max_ticks = 0;  ///< bern: cost range
    /// scripted: explicit (task, seq, cost_ticks) entries.
    std::vector<std::array<std::int64_t, 3>> costs;

    /// Instantiates the model; throws on an unknown kind.
    [[nodiscard]] std::unique_ptr<YieldModel> make() const;
  };

  /// One task as explicit GIS subtask specs — exact for every task kind.
  struct TaskSpec {
    std::string name;
    std::int64_t we = 1, wp = 1;  ///< weight e/p
    std::vector<Task::SubtaskSpec> subtasks;
  };

  std::string model = "sfq";  ///< sfq | dvq
  Policy policy = Policy::kPd2;
  int processors = 1;
  std::int64_t horizon_limit = 0;  ///< 0 = scheduler default
  std::uint64_t seed = 0;          ///< provenance only (workload seed)
  /// Tardiness allowance the auditor ran with, in ticks.  Unset: the
  /// model default (zero under SFQ, one quantum under DVQ — Theorem 3).
  /// Replay applies the same allowance, so a strict-allowance finding
  /// reproduces under the same rules it was found with.
  std::optional<std::int64_t> allowance_ticks;
  YieldSpec yields;
  std::vector<TaskSpec> tasks;
  AuditFinding finding;
  std::vector<TraceEvent> trace_prefix;

  /// Prefills model/policy/processors/horizon/tasks from a live system.
  [[nodiscard]] static CaptureBundle prototype(const TaskSystem& sys,
                                               std::string model,
                                               Policy policy,
                                               std::int64_t horizon_limit = 0,
                                               std::uint64_t seed = 0);

  /// Rebuilds the task system (Task::gis per task).
  [[nodiscard]] TaskSystem build_system() const;
};

/// Serializes to the single-document pfair-capture-v1 JSON form.
[[nodiscard]] std::string capture_to_json(const CaptureBundle& b);
/// Parses a pfair-capture-v1 document; throws InputError on a
/// wrong schema tag or malformed fields.
[[nodiscard]] CaptureBundle capture_from_json(std::string_view text);

/// Buffers the newest trace events and freezes a bundle on the first
/// recorded finding.  Wire it *before* the auditor in a TeeSink so the
/// triggering event is part of the prefix, and hand `record` to
/// InvariantAuditor::set_finding_callback.
class CounterexampleRecorder final : public TraceSink {
 public:
  explicit CounterexampleRecorder(CaptureBundle prototype,
                                  std::size_t prefix_capacity = 1024);

  void on_event(const TraceEvent& e) override;
  [[nodiscard]] TraceEventMask event_mask() const override {
    return kDecisionTraceEvents;
  }

  /// First call snapshots the bundle (finding + trace prefix); later
  /// calls are ignored.
  void record(const AuditFinding& f);

  [[nodiscard]] bool captured() const { return captured_; }
  /// Requires captured().
  [[nodiscard]] const CaptureBundle& bundle() const;

 private:
  CaptureBundle proto_;
  RingBufferSink ring_;
  bool captured_ = false;
};

/// Outcome of re-running a bundle through the reference simulators.
struct ReplayResult {
  /// True iff a violation of bundle.finding.kind was found again.
  bool reproduced = false;
  /// Every violation the offline checkers report (all kinds).
  std::vector<AuditFinding> findings;
};

/// Re-runs the bundle via schedule_sfq_reference / schedule_dvq_reference
/// and the offline validity + lag checkers.
[[nodiscard]] ReplayResult replay_bundle(const CaptureBundle& b);

/// Greedy delta-debugging: drops tasks (never the finding's own task),
/// then truncates the horizon, keeping each candidate only if
/// replay_bundle still reproduces the same finding kind.  Returns the
/// input unchanged if it does not reproduce in the first place.  The
/// shrunk bundle carries no trace prefix (task indices were remapped).
[[nodiscard]] CaptureBundle shrink_bundle(const CaptureBundle& b);

}  // namespace pfair
