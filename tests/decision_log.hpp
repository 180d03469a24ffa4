// A test-local trace sink that groups a run's canonical explanation
// (obs/trace.hpp, kExplainTraceEvents) by decision: the free processors,
// the ready-set size, the placements, the cut, the preemptions and the
// idle capacity of each slot or event instant.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time.hpp"
#include "obs/trace.hpp"
#include "tasks/subtask.hpp"

namespace pfair {

/// One decision, as its explanation reports it.
struct LoggedDecision {
  Time at;
  std::vector<int> free_procs;    ///< kProcFree, ascending
  std::int64_t ready = -1;        ///< kReadySet size; -1 if not reported
  std::vector<SubtaskRef> placed;  ///< kPlace, in placement order
  bool has_cut = false;           ///< a kCompare cut was reported
  SubtaskRef cut_winner;          ///< the lowest-priority winner
  SubtaskRef cut_denied;          ///< the highest-priority denied subtask
  TieRule cut_rule = TieRule::kTie;
  std::vector<SubtaskRef> preempted;  ///< kPreempt, ascending task
  std::int64_t idle = 0;              ///< sum of kProcIdle counts

  bool operator==(const LoggedDecision&) const = default;
};

class DecisionLog final : public TraceSink {
 public:
  void on_event(const TraceEvent& e) override {
    if (e.kind == TraceEventKind::kSlotBegin ||
        e.kind == TraceEventKind::kEventBegin) {
      decisions_.push_back(LoggedDecision{});
      decisions_.back().at = e.at;
      return;
    }
    if (decisions_.empty()) return;
    LoggedDecision& d = decisions_.back();
    switch (e.kind) {
      case TraceEventKind::kProcFree:
        d.free_procs.push_back(e.proc);
        break;
      case TraceEventKind::kReadySet:
        d.ready = e.detail;
        break;
      case TraceEventKind::kPlace:
        d.placed.push_back(e.subject);
        break;
      case TraceEventKind::kCompare:
        d.has_cut = true;
        d.cut_winner = e.subject;
        d.cut_denied = e.other;
        d.cut_rule = static_cast<TieRule>(e.aux);
        break;
      case TraceEventKind::kPreempt:
        d.preempted.push_back(e.subject);
        break;
      case TraceEventKind::kProcIdle:
        d.idle += e.detail;
        break;
      default:
        break;
    }
  }

  [[nodiscard]] const std::vector<LoggedDecision>& decisions() const {
    return decisions_;
  }

 private:
  std::vector<LoggedDecision> decisions_;
};

}  // namespace pfair
