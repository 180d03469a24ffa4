#include "dvq/dvq_scheduler.hpp"

#include <cstdint>
#include <vector>

#include "dvq/dvq_cycle.hpp"
#include "dvq/dvq_simulator.hpp"
#include "dvq/reference_scheduler.hpp"
#include "obs/metrics.hpp"
#include "sched/fast_forward.hpp"
#include "sched/state_hash.hpp"

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

/// The DVQ model's fast-forward hooks (sched/fast_forward.hpp).  A
/// boundary is quiescent when an event is still pending: run_until
/// stops short of the boundary, so none at or after it was processed.
struct DvqModel {
  using Sim = DvqSimulator;
  using Stored = DvqSchedule;

  static bool run_to(Sim& sim, std::int64_t t) {
    sim.run_until(Time::slots(t));
    return !sim.done() && sim.has_events();
  }
  /// The shared task records with readiness in DVQ's encoding (exact
  /// ticks while a head waits, -1 once it is queued), plus each
  /// processor's remaining busy ticks.
  static StateFingerprint snapshot(const Sim& sim, std::int64_t t) {
    const TaskSystem& sys = sim.system();
    const std::int64_t t_ticks = t * kTicksPerSlot;
    StateFingerprint fp;
    fp.at = t;
    fp.records.reserve(static_cast<std::size_t>(sys.num_tasks()));
    for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
      TaskStateRecord rec =
          detail::position_record(sys.task(k), sim.head_of(k), t);
      if (rec.rem != TaskStateRecord::kFinished) {
        const std::int64_t rt = sim.ready_time_of(k).raw_ticks();
        rec.avail_rel = rt < t_ticks ? -1 : rt - t_ticks;
      }
      fp.records.push_back(rec);
    }
    fp.procs.reserve(static_cast<std::size_t>(sys.processors()));
    for (std::int64_t p = 0; p < sys.processors(); ++p) {
      fp.procs.push_back(sim.proc_busy(p)
                             ? sim.proc_busy_until(p).raw_ticks() - t_ticks
                             : -1);
    }
    fp.hash = detail::hash_state(fp);
    return fp;
  }
  static void warp(Sim& sim, std::int64_t cycles, std::int64_t cycle_slots,
                   const std::vector<std::int64_t>& allocs, std::int64_t t) {
    sim.warp(cycles, cycle_slots, allocs, t);
  }
  /// The spliced makespan in slots, a partial last slot counted.
  static std::int64_t ran_to(const Sim&, const DvqCycleSchedule& out) {
    return (out.makespan().raw_ticks() + kTicksPerSlot - 1) / kTicksPerSlot;
  }
};

}  // namespace

DvqSchedule schedule_dvq(const TaskSystem& sys, const YieldModel& yields,
                         const DvqOptions& opts) {
  DvqSchedule sched =
      wants_explain(opts.trace)
          ? schedule_dvq_reference(sys, yields, opts)
          : detail::fast_forward<DvqModel>(
                sys, opts, opts.cycle_detect && yields.periodic_costs(),
                yields)
                .materialize();
  if (opts.metrics != nullptr) {
    publish_idle_ticks(sys, sched, *opts.metrics);
  }
  return sched;
}

DvqCycleSchedule schedule_dvq_cyclic(const TaskSystem& sys,
                                     const YieldModel& yields,
                                     const DvqOptions& opts) {
  if (wants_explain(opts.trace)) {
    return DvqCycleSchedule(schedule_dvq_reference(sys, yields, opts));
  }
  return detail::fast_forward<DvqModel>(sys, opts, yields.periodic_costs(),
                                        yields);
}

}  // namespace pfair
