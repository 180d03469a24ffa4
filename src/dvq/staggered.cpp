#include "dvq/staggered.hpp"

#include "dvq/dvq_simulator.hpp"

namespace pfair {

DvqSchedule schedule_staggered(const TaskSystem& sys, const YieldModel& yields,
                               const StaggeredOptions& opts) {
  const std::int64_t limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  DvqSimulator sim(sys, yields, opts.policy, nullptr,
                   /*staggered_grid=*/true);
  sim.run_until(Time::slots(limit));
  // Stores every subtask, as the other public schedulers' results do; a
  // run that reached every subtask stores them already.
  DvqSchedule out = std::move(sim).take_schedule();
  out.store_all();
  return out;
}

}  // namespace pfair
