#include "obs/probe.hpp"

namespace pfair {

void SchedProbe::attach_metrics(MetricsRegistry& reg) {
  invocations_ = &reg.counter(sched_metrics::kInvocations);
  placements_ = &reg.counter(sched_metrics::kPlacements);
  // Registered so they read 0, not missing, until add_recount fills
  // them (analysis/recount.hpp).
  (void)reg.counter(sched_metrics::kPreemptions);
  (void)reg.counter(sched_metrics::kMigrations);
  (void)reg.counter(sched_metrics::kIdleQuanta);
  deadline_misses_ = &reg.counter(sched_metrics::kDeadlineMisses);
  ready_size_ = &reg.histogram(sched_metrics::kReadySetSize);
  tardiness_ = &reg.histogram(sched_metrics::kTardinessTicks);
}

}  // namespace pfair
