#include "dvq/dvq_cycle.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/assert.hpp"
#include "dvq/dvq_simulator.hpp"
#include "dvq/reference_scheduler.hpp"
#include "obs/prof.hpp"
#include "sched/state_hash.hpp"

namespace pfair {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
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
  std::vector<std::int64_t> heads;

  [[nodiscard]] bool same_state(const DvqSnap& o) const {
    return hash == o.hash && tasks == o.tasks && procs == o.procs;
  }
};

DvqSnap dvq_snapshot(const DvqSimulator& sim, std::int64_t t) {
  const TaskSystem& sys = sim.system();
  const std::int64_t t_ticks = t * kTicksPerSlot;
  DvqSnap snap;
  snap.at = t;
  const auto n = static_cast<std::size_t>(sys.num_tasks());
  snap.tasks.reserve(n);
  snap.heads.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Task& task = sys.task(static_cast<std::int64_t>(k));
    const std::int64_t head = sim.head_of(static_cast<std::int64_t>(k));
    snap.heads.push_back(head);
    DvqTaskRecord rec;
    const Weight& w = task.weight();
    rec.lag_num = w.e * t - head * w.p;
    if (head >= task.num_subtasks()) {
      rec.rem = -1;
    } else {
      rec.rem = head % w.e;
      rec.anchor = task.subtask_at(head).release - t;
      const std::int64_t rt =
          sim.ready_time_of(static_cast<std::int64_t>(k)).raw_ticks();
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
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.rem));
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.anchor));
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.ready_rel));
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.lag_num));
  }
  for (const std::int64_t p : snap.procs) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(p));
  }
  snap.hash = h;
  return snap;
}

}  // namespace

DvqCycleSchedule::DvqCycleSchedule(DvqSchedule inner)
    : inner_(std::move(inner)),
      makespan_(inner_.makespan()),
      complete_(inner_.complete()) {}

DvqCycleSchedule::DvqCycleSchedule(DvqSchedule inner, CycleStats stats,
                                   std::vector<TaskSplice> splices,
                                   bool complete)
    : inner_(std::move(inner)),
      stats_(stats),
      splices_(std::move(splices)),
      makespan_(inner_.makespan()),
      complete_(complete) {
  if (!stats_.engaged) return;
  PFAIR_REQUIRE(static_cast<std::int64_t>(splices_.size()) ==
                    inner_.num_tasks(),
                "one splice per task required");
  for (std::size_t k = 0; k < splices_.size(); ++k) {
    const TaskSplice& sp = splices_[k];
    PFAIR_REQUIRE(sp.skip_begin >= 0 && sp.skip_count >= 0 &&
                      sp.skip_begin + sp.skip_count <=
                          inner_.num_subtasks(static_cast<std::int64_t>(k)) &&
                      (sp.skip_count == 0 || sp.per_cycle > 0),
                  "splice of task " << k << " out of range");
    if (sp.skip_count == 0) continue;
    const SubtaskRef last{
        static_cast<std::int32_t>(k),
        static_cast<std::int32_t>(sp.skip_begin + sp.skip_count - 1)};
    makespan_ = std::max(makespan_, placement(last).completion());
  }
  // Simulated slots: the spliced makespan (a partial last slot counts)
  // less the skipped region — the counterpart of schedule_sfq_cyclic's
  // sim.now() - slots_skipped.
  stats_.sim_slots =
      (makespan_.raw_ticks() + kTicksPerSlot - 1) / kTicksPerSlot -
      stats_.slots_skipped;
}

DvqPlacement DvqCycleSchedule::placement(const SubtaskRef& ref) const {
  if (!stats_.engaged) return inner_.placement(ref);
  const TaskSplice& sp = splices_[static_cast<std::size_t>(ref.task)];
  if (!in_skip(sp, ref.seq)) return inner_.placement(ref);
  const std::int64_t off = ref.seq - sp.skip_begin;
  const std::int64_t j = off / sp.per_cycle;
  const std::int64_t rem = off % sp.per_cycle;
  return shifted(
      inner_.placement(SubtaskRef{
          ref.task, static_cast<std::int32_t>(sp.cycle_begin + rem)}),
      (j + 1) * stats_.cycle_slots * kTicksPerSlot);
}

DvqSchedule DvqCycleSchedule::materialize(std::int64_t horizon) const {
  DvqSchedule out = inner_;
  if (!stats_.engaged) return out;
  const Time limit = Time::slots(horizon);
  for (std::size_t k = 0; k < splices_.size(); ++k) {
    const TaskSplice& sp = splices_[k];
    for (std::int64_t off = 0; off < sp.skip_count; ++off) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(sp.skip_begin + off)};
      const DvqPlacement pl = placement(ref);
      if (pl.start < limit) out.place(ref, pl.start, pl.cost, pl.proc);
    }
  }
  return out;
}

DvqCycleSchedule schedule_dvq_cyclic(const TaskSystem& sys,
                                     const YieldModel& yields,
                                     const DvqOptions& opts) {
  if (wants_explain(opts.trace)) {
    return DvqCycleSchedule(schedule_dvq_reference(sys, yields, opts));
  }
  const std::int64_t limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  std::optional<DvqSimulator> sim_store;
  {
    PFAIR_PROF_SPAN(kConstruction);
    sim_store.emplace(sys, yields, opts.policy, opts.arena);
  }
  DvqSimulator& sim = *sim_store;
  const bool probing = opts.trace == nullptr && opts.metrics == nullptr &&
                       opts.quality == nullptr && yields.periodic_costs();
  if (opts.trace != nullptr) sim.set_trace_sink(opts.trace);
  if (opts.metrics != nullptr) sim.attach_metrics(*opts.metrics);
  if (opts.quality != nullptr) sim.set_quality(opts.quality);

  CycleStats stats;
  std::vector<TaskSplice> splices;
  const std::int64_t hyper = probing ? fingerprint_period(sys) : 0;
  if (hyper > 0) {
    constexpr std::size_t kMaxSnaps = 64;
    std::vector<DvqSnap> snaps;
    const auto n = static_cast<std::size_t>(sys.num_tasks());
    for (std::int64_t t = 0; t + hyper <= limit; t += hyper) {
      sim.run_until(Time::slots(t));
      if (sim.done() || !sim.has_events()) break;
      bool exhausted = false;
      for (std::size_t k = 0; k < n; ++k) {
        exhausted |= sim.head_of(static_cast<std::int64_t>(k)) >=
                     sys.task(static_cast<std::int64_t>(k)).num_subtasks();
      }
      if (exhausted) break;
      PFAIR_PROF_SPAN(kFingerprint);
      DvqSnap snap = dvq_snapshot(sim, t);
      const DvqSnap* match = nullptr;
      for (const DvqSnap& s : snaps) {
        if (s.same_state(snap)) {
          match = &s;
          break;
        }
      }
      if (match != nullptr) {
        const std::int64_t cycle = t - match->at;
        std::vector<std::int64_t> allocs(n);
        std::int64_t max_cycles = (limit - t) / cycle;
        for (std::size_t k = 0; k < n; ++k) {
          allocs[k] = snap.heads[k] - match->heads[k];
          PFAIR_REQUIRE(allocs[k] > 0, "recurring task placed nothing");
          max_cycles = std::min(
              max_cycles,
              (sys.task(static_cast<std::int64_t>(k)).num_subtasks() -
               snap.heads[k]) /
                  allocs[k]);
        }
        if (max_cycles > 0) {
          splices.resize(n);
          for (std::size_t k = 0; k < n; ++k) {
            splices[k] = TaskSplice{match->heads[k], snap.heads[k], allocs[k],
                                    max_cycles * allocs[k]};
          }
          stats.engaged = true;
          stats.prefix_slots = match->at;
          stats.cycle_slots = cycle;
          stats.detect_slot = t;
          stats.cycles_skipped = max_cycles;
          stats.slots_skipped = max_cycles * cycle;
          PFAIR_PROF_SPAN(kWarp);
          sim.warp(max_cycles, cycle, allocs, t);
        }
        break;
      }
      if (snaps.size() >= kMaxSnaps) break;
      snaps.push_back(std::move(snap));
    }
  }
  sim.run_until(Time::slots(limit));
  const bool complete = sim.done();
  if (!stats.engaged) {
    return DvqCycleSchedule(std::move(sim).take_schedule());
  }
  return DvqCycleSchedule(std::move(sim).take_schedule(), stats,
                          std::move(splices), complete);
}

}  // namespace pfair
