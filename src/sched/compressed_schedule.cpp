#include "sched/compressed_schedule.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/assert.hpp"
#include "obs/prof.hpp"
#include "obs/probe.hpp"
#include "sched/reference_scheduler.hpp"
#include "sched/simulator.hpp"
#include "sched/state_hash.hpp"

namespace pfair {

CycleSchedule::CycleSchedule(SlotSchedule inner)
    : inner_(std::move(inner)),
      horizon_(inner_.horizon()),
      complete_(inner_.complete()) {}

CycleSchedule::CycleSchedule(SlotSchedule inner, CycleStats stats,
                             std::vector<TaskSplice> splices, bool complete)
    : inner_(std::move(inner)),
      stats_(stats),
      splices_(std::move(splices)),
      horizon_(inner_.horizon()),
      complete_(complete) {
  if (!stats_.engaged) return;
  PFAIR_REQUIRE(static_cast<std::int64_t>(splices_.size()) ==
                    inner_.num_tasks(),
                "one splice per task required");
  // The stored horizon misses the synthesized slots whenever the run
  // ended exactly at (or inside) the skipped window; fold in each
  // task's last synthesized placement.
  for (std::size_t k = 0; k < splices_.size(); ++k) {
    const TaskSplice& sp = splices_[k];
    PFAIR_REQUIRE(sp.skip_begin >= 0 && sp.skip_count >= 0 &&
                      sp.skip_begin + sp.skip_count <=
                          inner_.num_subtasks(static_cast<std::int64_t>(k)) &&
                      (sp.skip_count == 0 || sp.per_cycle > 0),
                  "splice of task " << k << " out of range");
    if (sp.skip_count == 0) continue;
    const std::int64_t off = sp.skip_count - 1;
    const SubtaskRef last{static_cast<std::int32_t>(k),
                          static_cast<std::int32_t>(sp.skip_begin + off)};
    horizon_ = std::max(horizon_, placement(last).slot + 1);
  }
}

SlotPlacement CycleSchedule::placement(const SubtaskRef& ref) const {
  if (!stats_.engaged) return inner_.placement(ref);
  const TaskSplice& sp = splices_[static_cast<std::size_t>(ref.task)];
  if (!in_skip(sp, ref.seq)) return inner_.placement(ref);
  const std::int64_t off = ref.seq - sp.skip_begin;
  const std::int64_t j = off / sp.per_cycle;
  const std::int64_t rem = off % sp.per_cycle;
  return shifted(
      inner_.placement(SubtaskRef{
          ref.task, static_cast<std::int32_t>(sp.cycle_begin + rem)}),
      (j + 1) * stats_.cycle_slots);
}

std::int64_t CycleSchedule::completion_slot(const SubtaskRef& ref) const {
  const SlotPlacement pl = placement(ref);
  PFAIR_REQUIRE(pl.scheduled(), "completion_slot of unscheduled subtask");
  return pl.slot + 1;
}

std::vector<SubtaskRef> CycleSchedule::slot_contents(std::int64_t slot) const {
  const std::int64_t skip_lo = stats_.detect_slot;
  const std::int64_t skip_hi = stats_.detect_slot + stats_.slots_skipped;
  if (!stats_.engaged || slot < skip_lo || slot >= skip_hi) {
    return inner_.slot_contents(slot);
  }
  // A synthesized slot: its contents are the base cycle slot's, with
  // every seq advanced by the number of whole cycles in between.
  const std::int64_t j = (slot - skip_lo) / stats_.cycle_slots;
  const std::int64_t base_slot =
      stats_.prefix_slots + (slot - skip_lo) % stats_.cycle_slots;
  std::vector<SubtaskRef> refs = inner_.slot_contents(base_slot);
  for (SubtaskRef& ref : refs) {
    const TaskSplice& sp = splices_[static_cast<std::size_t>(ref.task)];
    ref.seq = static_cast<std::int32_t>(sp.skip_begin + j * sp.per_cycle +
                                        (ref.seq - sp.cycle_begin));
  }
  return refs;
}

SlotSchedule CycleSchedule::materialize(std::int64_t horizon) const {
  SlotSchedule out = inner_;
  if (!stats_.engaged) return out;
  for (std::size_t k = 0; k < splices_.size(); ++k) {
    const TaskSplice& sp = splices_[k];
    for (std::int64_t off = 0; off < sp.skip_count; ++off) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(sp.skip_begin + off)};
      const SlotPlacement pl = placement(ref);
      if (pl.slot < horizon) out.place(ref, pl.slot, pl.proc);
    }
  }
  return out;
}

CycleSchedule schedule_sfq_cyclic(const TaskSystem& sys,
                                  const SfqOptions& opts) {
  if (wants_explain(opts.trace)) {
    return CycleSchedule(schedule_sfq_reference(sys, opts));
  }
  const std::int64_t limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  std::optional<SfqSimulator> sim_store;
  {
    PFAIR_PROF_SPAN(kConstruction);
    sim_store.emplace(sys, opts.policy, opts.arena);
  }
  SfqSimulator& sim = *sim_store;
  const bool probing = opts.trace == nullptr && opts.metrics == nullptr &&
                       opts.quality == nullptr;
  if (opts.trace != nullptr) sim.set_trace_sink(opts.trace);
  if (opts.metrics != nullptr) sim.attach_metrics(*opts.metrics);
  if (opts.quality != nullptr) sim.set_quality(opts.quality);

  CycleStats stats;
  std::vector<TaskSplice> splices;
  const std::int64_t hyper = probing ? fingerprint_period(sys) : 0;
  if (hyper > 0) {
    struct Snap {
      StateFingerprint fp;
      std::vector<std::int64_t> heads;
    };
    // Bounds the snapshot table (and the quadratic confirm scans) on
    // systems that never actually recur; in practice the match lands on
    // the first or second boundary.
    constexpr std::size_t kMaxSnaps = 64;
    std::vector<Snap> snaps;
    const auto n = static_cast<std::size_t>(sys.num_tasks());
    for (std::int64_t t = 0; t + hyper <= limit; t += hyper) {
      sim.run_until(t);
      if (sim.done() || sim.now() != t) break;
      std::vector<std::int64_t> heads(n);
      bool exhausted = false;
      for (std::size_t k = 0; k < n; ++k) {
        heads[k] = sim.head_of(static_cast<std::int64_t>(k));
        exhausted |=
            heads[k] >= sys.task(static_cast<std::int64_t>(k)).num_subtasks();
      }
      // Once any task's sequence runs dry the state can never recur
      // (its lag drifts monotonically) — stop paying for snapshots.
      if (exhausted) break;
      PFAIR_PROF_SPAN(kFingerprint);
      StateFingerprint fp = sfq_state_fingerprint(sim);
      const Snap* match = nullptr;
      for (const Snap& s : snaps) {
        if (s.fp.same_state(fp)) {
          match = &s;
          break;
        }
      }
      if (match != nullptr) {
        const std::int64_t cycle = t - match->fp.at;
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
          stats.prefix_slots = match->fp.at;
          stats.cycle_slots = cycle;
          stats.detect_slot = t;
          stats.cycles_skipped = max_cycles;
          stats.slots_skipped = max_cycles * cycle;
          PFAIR_PROF_SPAN(kWarp);
          sim.warp(max_cycles, cycle, allocs);
        }
        break;
      }
      if (snaps.size() >= kMaxSnaps) break;
      snaps.push_back(Snap{std::move(fp), std::move(heads)});
    }
  }
  sim.run_until(limit);
  stats.sim_slots = sim.now() - stats.slots_skipped;
  const bool complete = sim.done();
  if (!stats.engaged) {
    return CycleSchedule(std::move(sim).take_schedule());
  }
  return CycleSchedule(std::move(sim).take_schedule(), stats,
                       std::move(splices), complete);
}

void replay_decisions(const TaskSystem& sys, const CycleSchedule& sched,
                      TraceSink& sink) {
  struct Placed {
    std::int64_t slot;
    int proc;
    SubtaskRef ref;
  };
  std::vector<Placed> placed;
  for (std::int64_t k = 0; k < sched.num_tasks(); ++k) {
    for (std::int64_t s = 0; s < sched.num_subtasks(k); ++s) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(s)};
      const SlotPlacement pl = sched.placement(ref);
      if (pl.scheduled()) placed.push_back(Placed{pl.slot, pl.proc, ref});
    }
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& a, const Placed& b) {
              return a.slot != b.slot ? a.slot < b.slot : a.proc < b.proc;
            });
  SchedProbe probe;
  probe.set_sink(&sink);
  std::size_t i = 0;
  for (std::int64_t slot = 0; slot < sched.horizon(); ++slot) {
    const Time at = Time::slots(slot);
    probe.begin_decision(TraceEventKind::kSlotBegin, at, slot);
    for (; i < placed.size() && placed[i].slot == slot; ++i) {
      const Placed& p = placed[i];
      probe.place(at, p.ref, p.proc, slot);
      if (p.ref.seq > 0) {
        const SlotPlacement prev =
            sched.placement(SubtaskRef{p.ref.task, p.ref.seq - 1});
        if (prev.proc >= 0 && prev.proc != p.proc) {
          probe.migrate(at, p.ref, prev.proc, p.proc);
        }
      }
      const std::int64_t tard = std::max<std::int64_t>(
          0, slot + 1 - sys.subtask(p.ref).deadline);
      probe.deadline(at, p.ref, tard * kTicksPerSlot);
    }
    probe.end_decision();
  }
}

}  // namespace pfair
