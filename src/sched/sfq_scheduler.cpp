#include "sched/sfq_scheduler.hpp"

#include <optional>
#include <utility>

#include "obs/prof.hpp"
#include "sched/compressed_schedule.hpp"
#include "sched/reference_scheduler.hpp"
#include "sched/simulator.hpp"

namespace pfair {

std::int64_t default_horizon(const TaskSystem& sys) {
  // An optimal policy finishes every feasible system by its max deadline.
  // Suboptimal policies (EPDF) and overutilized systems run longer; known
  // EPDF tardiness bounds are a small number of quanta, so a linear
  // allowance in the subtask count is a safe hard stop rather than a bound
  // we expect to reach.
  return sys.max_deadline() + sys.total_subtasks() + 16;
}

SlotSchedule schedule_sfq(const TaskSystem& sys, const SfqOptions& opts) {
  if (wants_explain(opts.trace)) return schedule_sfq_reference(sys, opts);
  if (opts.cycle_detect && opts.trace == nullptr &&
      opts.metrics == nullptr && opts.quality == nullptr) {
    // The cyclic driver runs the same simulator and warps over proven
    // recurrences; materializing afterwards reproduces the full run
    // placement for placement (asserted by tests/cycle_test.cpp).
    CycleSchedule cyc = schedule_sfq_cyclic(sys, opts);
    if (cyc.stats().engaged) return cyc.materialize(cyc.horizon());
    return std::move(cyc).take_stored();
  }
  const std::int64_t limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  // The simulator is not movable (its ready heap points into member
  // tables), so construct in place under the span.
  std::optional<SfqSimulator> sim;
  {
    PFAIR_PROF_SPAN(kConstruction);
    sim.emplace(sys, opts.policy, opts.arena);
  }
  if (opts.trace != nullptr) sim->set_trace_sink(opts.trace);
  if (opts.metrics != nullptr) sim->attach_metrics(*opts.metrics);
  if (opts.quality != nullptr) sim->set_quality(opts.quality);
  sim->run_until(limit);
  return std::move(*sim).take_schedule();
}

void schedule_sfq_into(const TaskSystem& sys, const SfqOptions& opts,
                       SlotSchedule& out) {
  if (wants_explain(opts.trace)) {
    out = schedule_sfq_reference(sys, opts);
    return;
  }
  out.clear_placements();
  const std::int64_t limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  std::optional<SfqSimulator> sim;
  {
    PFAIR_PROF_SPAN(kConstruction);
    sim.emplace(sys, opts.policy, opts.arena, &out);
  }
  if (opts.trace != nullptr) sim->set_trace_sink(opts.trace);
  if (opts.metrics != nullptr) sim->attach_metrics(*opts.metrics);
  if (opts.quality != nullptr) sim->set_quality(opts.quality);
  sim->run_until(limit);
}

}  // namespace pfair
