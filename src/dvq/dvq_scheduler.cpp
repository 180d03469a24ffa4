#include "dvq/dvq_scheduler.hpp"

#include <optional>
#include <utility>

#include "dvq/dvq_cycle.hpp"
#include "dvq/dvq_simulator.hpp"
#include "dvq/reference_scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "sched/sfq_scheduler.hpp"

namespace pfair {

namespace {

/// The "sched.idle_ticks" gauge: capacity minus busy time over the
/// makespan.
void publish_idle_ticks(const TaskSystem& sys, const DvqSchedule& sched,
                        MetricsRegistry& reg) {
  std::int64_t busy = 0;
  for (const std::int64_t b : sched.busy_ticks()) busy += b;
  reg.gauge("sched.idle_ticks")
      .set(sched.makespan().raw_ticks() * sys.processors() - busy);
}

}  // namespace

DvqSchedule schedule_dvq(const TaskSystem& sys, const YieldModel& yields,
                         const DvqOptions& opts) {
  if (wants_explain(opts.trace)) {
    DvqSchedule sched = schedule_dvq_reference(sys, yields, opts);
    if (opts.metrics != nullptr) {
      publish_idle_ticks(sys, sched, *opts.metrics);
    }
    return sched;
  }
  if (opts.cycle_detect && opts.trace == nullptr && opts.metrics == nullptr &&
      opts.quality == nullptr && yields.periodic_costs()) {
    const std::int64_t limit =
        opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
    DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, yields, opts);
    if (cyc.stats().engaged) return cyc.materialize(limit);
    return std::move(cyc).take_stored();
  }
  const std::int64_t slot_limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  // The simulator is not movable (its ready heap points into member
  // tables), so construct in place under the span.
  std::optional<DvqSimulator> sim_store;
  {
    PFAIR_PROF_SPAN(kConstruction);
    sim_store.emplace(sys, yields, opts.policy, opts.arena);
  }
  DvqSimulator& sim = *sim_store;
  if (opts.trace != nullptr) sim.set_trace_sink(opts.trace);
  if (opts.metrics != nullptr) sim.attach_metrics(*opts.metrics);
  if (opts.quality != nullptr) sim.set_quality(opts.quality);
  sim.run_until(Time::slots(slot_limit));
  if (opts.metrics != nullptr) {
    publish_idle_ticks(sys, sim.schedule(), *opts.metrics);
  }
  return std::move(sim).take_schedule();
}

}  // namespace pfair
