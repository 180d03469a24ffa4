// The one steady-state fast-forward driver, shared by the SFQ and DVQ
// models and by both of each model's entry points (schedule_sfq /
// schedule_sfq_cyclic, schedule_dvq / schedule_dvq_cyclic).
//
// The driver runs a model's simulator from construction to the horizon
// limit.  It builds the simulator under the construction span and
// attaches the run's observers.  When probing, it snapshots the state at
// every hyperperiod boundary; on a recurrence it warps over as many whole
// cycles as the limit and every task's subtask count allow, and hands
// back a SplicedSchedule (sched/compressed_schedule.hpp) whose stored
// schedule holds cells for the simulated seqs only: every simulator
// grows its store as it simulates, and the warp leaves the skipped seqs
// unstored (StoreBudget, sched/positions.hpp).  Probing needs an
// unobserved run — observed streams are never elided — so without it
// this is the plain full run, wrapped unengaged: one run_to(limit),
// which grows the store once, to the seqs eligible before the limit.
// That full run is what the quality recount (analysis/recount.hpp,
// add_recount) reads once the run returns, for opts.quality and
// opts.metrics.
//
// A model plugs in through a hooks type M:
//   M::Sim, M::Stored      the simulator and the schedule it stores;
//   M::run_to(sim, t)      runs to slot boundary t; true iff work is left
//                          and the simulator is quiescent there (the only
//                          states a snapshot describes exactly);
//   M::snapshot(sim, t)    the decision-relevant state at boundary t, a
//                          StateFingerprint (sched/state_hash.hpp);
//   M::warp(sim, m, C, allocs, t)  skips m cycles of C slots proven at t;
//   M::ran_to(sim, out)    the slot the simulation reached (the simulator
//                          after take_schedule, and the spliced result).
// The simulator itself supplies head_of(k), done(), take_schedule() and
// the observer hooks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/recount.hpp"
#include "core/assert.hpp"
#include "obs/prof.hpp"
#include "sched/compressed_schedule.hpp"
#include "sched/sfq_scheduler.hpp"
#include "sched/state_hash.hpp"

namespace pfair::detail {

/// Runs `Model::Sim(sys, sim_args..., opts.policy, opts.arena)` to the
/// horizon limit, probing for a steady-state cycle iff `probe` and the
/// run is unobserved (see the header note).
template <class Model, class Opts, class... SimArgs>
SplicedSchedule<typename Model::Stored> fast_forward(
    const TaskSystem& sys, const Opts& opts, bool probe,
    const SimArgs&... sim_args) {
  using Spliced = SplicedSchedule<typename Model::Stored>;
  const std::int64_t limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  // The simulator is not movable (its ready heap points into member
  // tables), so construct in place under the span.
  std::optional<typename Model::Sim> sim_store;
  {
    PFAIR_PROF_SPAN(kConstruction);
    sim_store.emplace(sys, sim_args..., opts.policy, opts.arena);
  }
  auto& sim = *sim_store;
  if (opts.trace != nullptr) sim.set_trace_sink(opts.trace);
  if (opts.metrics != nullptr) sim.attach_metrics(*opts.metrics);

  // A watched run never probes: its skipped slots would go unobserved,
  // and the quality recount needs the whole schedule.
  const bool observed = opts.trace != nullptr || opts.metrics != nullptr ||
                        opts.quality != nullptr;
  CycleStats stats;
  std::vector<TaskSplice> splices;
  const std::int64_t hyper =
      probe && !observed ? fingerprint_period(sys) : 0;
  if (hyper > 0) {
    struct Snap {
      StateFingerprint state;
      std::vector<std::int64_t> heads;
    };
    // Bounds the snapshot table (and the quadratic confirm scans) on
    // systems that never actually recur; in practice the match lands on
    // the first or second boundary.
    constexpr std::size_t kMaxSnaps = 64;
    std::vector<Snap> snaps;
    const auto n = static_cast<std::size_t>(sys.num_tasks());
    for (std::int64_t t = 0; t + hyper <= limit; t += hyper) {
      if (!Model::run_to(sim, t)) break;
      std::vector<std::int64_t> heads(n);
      bool exhausted = false;
      for (std::size_t k = 0; k < n; ++k) {
        const auto task = static_cast<std::int64_t>(k);
        heads[k] = sim.head_of(task);
        exhausted |= heads[k] >= sys.task(task).num_subtasks();
      }
      // Once any task's sequence runs dry the state can never recur
      // (its lag drifts monotonically) — stop paying for snapshots.
      if (exhausted) break;
      PFAIR_PROF_SPAN(kFingerprint);
      StateFingerprint state = Model::snapshot(sim, t);
      const auto match =
          std::find_if(snaps.begin(), snaps.end(),
                       [&](const Snap& s) { return s.state.same_state(state); });
      if (match != snaps.end()) {
        const std::int64_t cycle = t - match->state.at;
        std::vector<std::int64_t> allocs(n);
        std::int64_t max_cycles = (limit - t) / cycle;
        for (std::size_t k = 0; k < n; ++k) {
          allocs[k] = heads[k] - match->heads[k];
          PFAIR_REQUIRE(allocs[k] > 0, "recurring task placed nothing");
          max_cycles = std::min(
              max_cycles,
              (sys.task(static_cast<std::int64_t>(k)).num_subtasks() -
               heads[k]) /
                  allocs[k]);
        }
        if (max_cycles > 0) {
          splices.resize(n);
          for (std::size_t k = 0; k < n; ++k) {
            splices[k] = TaskSplice{match->heads[k], heads[k], allocs[k],
                                    max_cycles * allocs[k]};
          }
          stats.engaged = true;
          stats.prefix_slots = match->state.at;
          stats.cycle_slots = cycle;
          stats.detect_slot = t;
          stats.cycles_skipped = max_cycles;
          stats.slots_skipped = max_cycles * cycle;
          PFAIR_PROF_SPAN(kWarp);
          Model::warp(sim, max_cycles, cycle, allocs, t);
        }
        break;
      }
      if (snaps.size() >= kMaxSnaps) break;
      snaps.push_back(Snap{std::move(state), std::move(heads)});
    }
  }
  Model::run_to(sim, limit);
  // done() is the stored schedule's complete() without its O(subtasks)
  // DVQ scan.
  const bool complete = sim.done();
  typename Model::Stored stored = std::move(sim).take_schedule();
  add_recount(sys, stored, opts.quality, opts.metrics);
  Spliced out(std::move(stored), stats, std::move(splices), complete);
  if (stats.engaged) {
    out.stats_.sim_slots = Model::ran_to(sim, out) - stats.slots_skipped;
  }
  return out;
}

}  // namespace pfair::detail
