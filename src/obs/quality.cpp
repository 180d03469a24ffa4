#include "obs/quality.hpp"

#include <sstream>

#include "obs/metrics.hpp"

namespace pfair {

std::string quality_to_string(const QualityCounters& q) {
  std::ostringstream os;
  os << "preemptions=" << q.preemptions << " migrations=" << q.migrations
     << " idle_slots=" << q.idle_slots
     << " context_switches=" << q.context_switches
     << " decision_points=" << q.decision_points;
  return os.str();
}

QualityCounters& QualityCounters::operator+=(const QualityCounters& o) {
  preemptions += o.preemptions;
  migrations += o.migrations;
  idle_slots += o.idle_slots;
  context_switches += o.context_switches;
  decision_points += o.decision_points;
  resize_procs(o.per_proc_switches.size());
  for (std::size_t p = 0; p < o.per_proc_switches.size(); ++p) {
    per_proc_switches[p] += o.per_proc_switches[p];
  }
  return *this;
}

void publish_quality(const QualityCounters& q, MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.counter(prefix + ".preemptions").add(q.preemptions);
  reg.counter(prefix + ".migrations").add(q.migrations);
  reg.counter(prefix + ".idle_slots").add(q.idle_slots);
  reg.counter(prefix + ".context_switches").add(q.context_switches);
  reg.counter(prefix + ".decision_points").add(q.decision_points);
  for (std::size_t p = 0; p < q.per_proc_switches.size(); ++p) {
    reg.counter(prefix + ".proc" + std::to_string(p) + ".context_switches")
        .add(q.per_proc_switches[p]);
  }
}

}  // namespace pfair
