#include "sched/sfq_scheduler.hpp"

#include <optional>
#include <vector>

#include "analysis/recount.hpp"
#include "obs/prof.hpp"
#include "sched/compressed_schedule.hpp"
#include "sched/fast_forward.hpp"
#include "sched/reference_scheduler.hpp"
#include "sched/simulator.hpp"
#include "sched/state_hash.hpp"

namespace pfair {

namespace {

/// The SFQ model's fast-forward hooks (sched/fast_forward.hpp).
struct SfqModel {
  using Sim = SfqSimulator;
  using Stored = SlotSchedule;

  static bool run_to(Sim& sim, std::int64_t t) {
    sim.run_until(t);
    return !sim.done() && sim.now() == t;
  }
  static StateFingerprint snapshot(const Sim& sim, std::int64_t) {
    return sfq_state_fingerprint(sim);
  }
  static void warp(Sim& sim, std::int64_t cycles, std::int64_t cycle_slots,
                   const std::vector<std::int64_t>& allocs, std::int64_t) {
    sim.warp(cycles, cycle_slots, allocs);
  }
  static std::int64_t ran_to(const Sim& sim, const CycleSchedule&) {
    return sim.now();
  }
};

}  // namespace

SlotSchedule schedule_sfq(const TaskSystem& sys, const SfqOptions& opts) {
  if (wants_explain(opts.trace)) return schedule_sfq_reference(sys, opts);
  // Materializing a fast-forwarded run reproduces the full run placement
  // for placement (asserted by tests/cycle_test.cpp).
  return detail::fast_forward<SfqModel>(sys, opts, opts.cycle_detect)
      .materialize();
}

CycleSchedule schedule_sfq_cyclic(const TaskSystem& sys,
                                  const SfqOptions& opts) {
  if (wants_explain(opts.trace)) {
    return CycleSchedule(schedule_sfq_reference(sys, opts));
  }
  return detail::fast_forward<SfqModel>(sys, opts, true);
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
  sim->run_until(limit);
  add_recount(sys, out, opts.quality, opts.metrics);
}

}  // namespace pfair
