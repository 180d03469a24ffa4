#include "dvq/decision_sink.hpp"

namespace pfair {

void DvqDecisionSink::on_event(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kEventBegin:
      flush();
      cur_.at = e.at;
      break;
    case TraceEventKind::kProcFree:
      cur_.free_procs.push_back(e.proc);
      break;
    case TraceEventKind::kPlace:
      cur_.started.push_back(e.subject);
      break;
    case TraceEventKind::kPreempt:
      cur_.left_ready.push_back(e.subject);
      break;
    default:
      break;  // comparison/deadline/idle events carry no decision state
  }
}

void DvqDecisionSink::flush() {
  if (!cur_.started.empty()) decisions_.push_back(std::move(cur_));
  cur_ = DvqDecision{};
}

}  // namespace pfair
