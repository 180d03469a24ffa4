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

/// One task's decision-relevant DVQ state at slot boundary T, relative
/// to T.  Readiness is exact in ticks for heads still pending (an entry
/// at exactly T fires a decision event at T) and clamped to the
/// sentinel for heads already drained into the ready queue — queue
/// order depends only on static priorities, never on drain time.
struct DvqTaskRecord {
  std::int64_t rem = 0;        // head seq mod raw e (-1 once exhausted)
  std::int64_t anchor = 0;     // r(head) - T, slots
  std::int64_t ready_rel = 0;  // ready_at - T, ticks; -1 = in ready queue
  std::int64_t lag_num = 0;    // e_raw * T - started * p_raw

  friend bool operator==(const DvqTaskRecord&, const DvqTaskRecord&) = default;
};

/// Full DVQ state at slot boundary `at`: task records plus per-processor
/// remaining busy ticks (-1 when idle).  Equality compares everything;
/// the hash is only a fast reject.
struct DvqSnap {
  std::uint64_t hash = 0;
  std::int64_t at = 0;
  std::vector<DvqTaskRecord> tasks;
  std::vector<std::int64_t> procs;

  [[nodiscard]] bool same_state(const DvqSnap& o) const {
    return hash == o.hash && tasks == o.tasks && procs == o.procs;
  }
};

DvqSnap dvq_snapshot(const DvqSimulator& sim, std::int64_t t) {
  const TaskSystem& sys = sim.system();
  const std::int64_t t_ticks = t * kTicksPerSlot;
  DvqSnap snap;
  snap.at = t;
  snap.tasks.reserve(static_cast<std::size_t>(sys.num_tasks()));
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    const std::int64_t head = sim.head_of(k);
    DvqTaskRecord rec;
    const Weight& w = task.weight();
    rec.lag_num = w.e * t - head * w.p;
    if (head >= task.num_subtasks()) {
      rec.rem = -1;
    } else {
      rec.rem = head % w.e;
      rec.anchor = task.subtask_at(head).release - t;
      const std::int64_t rt = sim.ready_time_of(k).raw_ticks();
      rec.ready_rel = rt < t_ticks ? -1 : rt - t_ticks;
    }
    snap.tasks.push_back(rec);
  }
  snap.procs.reserve(static_cast<std::size_t>(sys.processors()));
  for (std::int64_t p = 0; p < sys.processors(); ++p) {
    snap.procs.push_back(sim.proc_busy(p)
                             ? sim.proc_busy_until(p).raw_ticks() - t_ticks
                             : -1);
  }
  std::uint64_t h = 0xa076bc23176a95dbull;
  for (const DvqTaskRecord& r : snap.tasks) {
    h = detail::splitmix64(h ^ static_cast<std::uint64_t>(r.rem));
    h = detail::splitmix64(h ^ static_cast<std::uint64_t>(r.anchor));
    h = detail::splitmix64(h ^ static_cast<std::uint64_t>(r.ready_rel));
    h = detail::splitmix64(h ^ static_cast<std::uint64_t>(r.lag_num));
  }
  for (const std::int64_t p : snap.procs) {
    h = detail::splitmix64(h ^ static_cast<std::uint64_t>(p));
  }
  snap.hash = h;
  return snap;
}

/// The DVQ model's fast-forward hooks (sched/fast_forward.hpp).  A
/// boundary is quiescent when an event is still pending: run_until
/// stops short of the boundary, so none at or after it was processed.
struct DvqModel {
  using Sim = DvqSimulator;
  using Stored = DvqSchedule;
  using Snapshot = DvqSnap;

  static bool run_to(Sim& sim, std::int64_t t) {
    sim.run_until(Time::slots(t));
    return !sim.done() && sim.has_events();
  }
  static Snapshot snapshot(const Sim& sim, std::int64_t t) {
    return dvq_snapshot(sim, t);
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
