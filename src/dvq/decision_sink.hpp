// Reconstructs the classic per-instant `DvqDecision` log from the
// structured trace-event stream.
//
// This replaced the removed `DvqOptions::log_decisions` flag: install a
// DvqDecisionSink as the trace sink (or behind a TeeSink) and it
// rebuilds the same log the old ad-hoc logger recorded.  The log needs
// explain events (free processors, unserved ready subtasks), so
// `schedule_dvq` serves such a run from schedule_dvq_reference; a
// DvqSimulator rejects the sink.  One decision
// spans the events between two kEventBegin boundaries; it is committed
// on flush() (end of the simulator step) and only if at least one
// subtask started — exactly the instants the old logger kept.
//
// Two storage modes: appended into an external `DvqSchedule` (the
// legacy location, read back via `DvqSchedule::decisions()`), or — with
// the default constructor — into the sink's own log, read back via
// `decisions()`.
#pragma once

#include <vector>

#include "dvq/dvq_schedule.hpp"
#include "obs/trace.hpp"

namespace pfair {

class DvqDecisionSink final : public TraceSink {
 public:
  /// Owns its decision log; read it back via decisions().
  DvqDecisionSink() = default;
  /// Appends into `sched` (which must outlive the sink) via
  /// `DvqSchedule::log_decision`.
  explicit DvqDecisionSink(DvqSchedule& sched) : sched_(&sched) {}

  void on_event(const TraceEvent& e) override;
  void flush() override;

  /// The decisions committed so far (own-storage mode only; empty when
  /// bound to an external schedule).
  [[nodiscard]] const std::vector<DvqDecision>& decisions() const {
    return own_;
  }

 private:
  DvqSchedule* sched_ = nullptr;
  std::vector<DvqDecision> own_;
  DvqDecision cur_;
};

}  // namespace pfair
