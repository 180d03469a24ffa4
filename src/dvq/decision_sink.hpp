// Reconstructs the classic per-instant `DvqDecision` log from the
// structured trace-event stream.
//
// Install a DvqDecisionSink as the trace sink (or behind a TeeSink) and
// it rebuilds the log into its own storage.  The log needs explain
// events (free processors, unserved ready subtasks), so `schedule_dvq`
// serves such a run from schedule_dvq_reference; a DvqSimulator rejects
// the sink.  One decision spans the events between two kEventBegin
// boundaries; it is committed on flush() (end of the simulator step)
// and only if at least one subtask started.
#pragma once

#include <vector>

#include "core/time.hpp"
#include "obs/trace.hpp"
#include "tasks/subtask.hpp"

namespace pfair {

/// One decision instant of the DVQ engine: which processors were free,
/// which subtasks started, and which ready subtasks were left waiting.
/// This is the raw material for the blocking analysis of Sec. 3.1.
struct DvqDecision {
  Time at;
  std::vector<int> free_procs;
  std::vector<SubtaskRef> started;
  std::vector<SubtaskRef> left_ready;  ///< ready but unserved at `at`
};

class DvqDecisionSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& e) override;
  void flush() override;

  /// The decisions committed so far, in time order.
  [[nodiscard]] const std::vector<DvqDecision>& decisions() const {
    return decisions_;
  }

 private:
  std::vector<DvqDecision> decisions_;
  DvqDecision cur_;
};

}  // namespace pfair
