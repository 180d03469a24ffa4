// The desynchronized, variable-sized-quantum (DVQ) scheduler — Sec. 3.
//
// Event-driven and work-conserving: whenever a subtask completes (possibly
// mid-slot, after using only c(T_i) < 1 of its quantum), the freed
// processor is immediately offered to the highest-priority ready subtask;
// quanta on different processors need not align.  Scheduling decisions
// therefore happen at arbitrary (tick-exact) instants, and a decision made
// just before an integral eligibility time can hand a processor to
// lower-priority work — exactly the eligibility/predecessor blocking the
// paper analyzes.  Theorem 3: with PD2 priorities the resulting tardiness
// is below one quantum for every feasible GIS system.
#pragma once

#include "dvq/dvq_schedule.hpp"
#include "dvq/yield.hpp"
#include "sched/priority.hpp"

namespace pfair {

class Arena;             // core/arena.hpp
class TraceSink;         // obs/trace.hpp
class MetricsRegistry;   // obs/metrics.hpp
struct QualityCounters;  // obs/quality.hpp

struct DvqOptions {
  Policy policy = Policy::kPd2;
  /// Hard stop, in slots (0 = automatic, as for the SFQ scheduler).
  std::int64_t horizon_limit = 0;
  /// Optional structured trace receiver (not owned; see obs/trace.hpp).
  /// It is fed the decision events and, if its mask asks for any explain
  /// kind, each decision's canonical explanation, O(M) events an
  /// instant.  The schedule is bit-identical either way.
  TraceSink* trace = nullptr;
  /// Optional metrics registry (not owned); sched.* counters and
  /// histograms accumulate into it on the fast path, plus a final
  /// "sched.idle_ticks" gauge (capacity minus busy time over the
  /// makespan).
  MetricsRegistry* metrics = nullptr;
  /// Optional scheduler-quality counters (not owned; obs/quality.hpp):
  /// when the run returns with a complete schedule, its recount
  /// (analysis/recount.hpp) — preemptions, migrations, idle capacity,
  /// context switches — is added here (and to the sched.* quality
  /// metrics); a truncated run adds nothing.  Like trace/metrics,
  /// attaching disables cycle fast-forward.
  QualityCounters* quality = nullptr;
  /// Optional bump arena (not owned; core/arena.hpp) backing the
  /// simulator's working state, as for SfqOptions::arena.  Must be
  /// fresh or reset when the run starts; the caller resets it between
  /// runs.
  Arena* arena = nullptr;
  /// Steady-state cycle detection (dvq/dvq_cycle.hpp): skip proven-
  /// recurring hyperperiods instead of simulating them.  Engages only
  /// for deterministic/periodic yield models (YieldModel::periodic_costs)
  /// and never while `trace` or `metrics` is attached; placements are
  /// bit-identical either way.
  bool cycle_detect = true;
};

/// Runs the DVQ scheduler with actual execution costs drawn from `yields`.
[[nodiscard]] DvqSchedule schedule_dvq(const TaskSystem& sys,
                                       const YieldModel& yields,
                                       const DvqOptions& opts = {});

}  // namespace pfair
