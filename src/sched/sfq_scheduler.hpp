// The slot-synchronous (SFQ-model) Pfair scheduler.
//
// At every slot boundary t the scheduler collects the *ready* subtasks —
// each task's next unscheduled subtask, provided it is eligible
// (e(T_i) <= t) and its predecessor, if any, was scheduled before t — and
// places the M highest-priority ones (under the configured policy) on the
// M processors.  This is the model of Sec. 2: fixed-size quanta, aligned
// across processors, decisions at slot boundaries only.
#pragma once

#include <cstdint>

#include "sched/priority.hpp"
#include "sched/schedule.hpp"

namespace pfair {

class Arena;             // core/arena.hpp
class TraceSink;         // obs/trace.hpp
class MetricsRegistry;   // obs/metrics.hpp
struct QualityCounters;  // obs/quality.hpp

/// Options for one SFQ run.
struct SfqOptions {
  Policy policy = Policy::kPd2;
  /// Stop after this many slots even if subtasks remain unscheduled.
  /// 0 = automatic: max deadline plus a tardiness allowance (generous for
  /// suboptimal policies / infeasible systems).
  std::int64_t horizon_limit = 0;
  /// Optional structured trace receiver (not owned; see obs/trace.hpp).
  /// It is fed the decision events and, if its mask asks for any explain
  /// kind, each decision's canonical explanation, O(M) events a slot.
  /// The schedule is bit-identical either way.
  TraceSink* trace = nullptr;
  /// Optional metrics registry (not owned); sched.* counters and
  /// histograms accumulate into it on the fast path (see obs/probe.hpp).
  MetricsRegistry* metrics = nullptr;
  /// Optional scheduler-quality counters (not owned; obs/quality.hpp):
  /// when the run returns with a complete schedule, its recount
  /// (analysis/recount.hpp) — preemptions, migrations, idle slots,
  /// context switches — is added here (and to the sched.* quality
  /// metrics); a truncated run adds nothing.
  /// Like trace/metrics, attaching disables cycle fast-forward.
  QualityCounters* quality = nullptr;
  /// Optional bump arena (not owned; core/arena.hpp) backing all of the
  /// scheduler's working state — key tables, ready heap, calendar
  /// chunks, hot task records.  Must be fresh or reset when the run
  /// starts; the scheduler never resets it, so the caller resets it
  /// between runs.  Together with `schedule_sfq_into`, this makes
  /// repeated runs free of steady-state heap allocations
  /// (tests/steady_alloc_test.cpp pins this).
  Arena* arena = nullptr;
  /// Steady-state cycle detection (sched/compressed_schedule.hpp): skip
  /// proven-recurring hyperperiods instead of simulating them.  Placements
  /// are bit-identical either way; the knob exists so A/B tests can force
  /// the full run.  Automatically off while `trace`, `metrics` or
  /// `quality` is attached — observed streams are never elided.
  bool cycle_detect = true;
};

/// Runs the SFQ scheduler to completion (or to the horizon limit).
/// The returned schedule is complete for every feasible system under an
/// optimal policy; `SlotSchedule::complete()` reports truncation otherwise.
[[nodiscard]] SlotSchedule schedule_sfq(const TaskSystem& sys,
                                        const SfqOptions& opts = {});

/// Runs the SFQ scheduler writing placements into `out`, which must be
/// shaped like `sys` (existing placements are cleared first).  This is
/// the allocation-free reuse entry point: with `opts.arena` set and
/// reset between calls, repeated calls touch only memory that is
/// already owned — no heap traffic in steady state (the sustained-
/// throughput bench and sweeps run on this).  Placements are
/// bit-identical to `schedule_sfq`.  Cycle fast-forward does not apply
/// here (it would synthesize placements outside `out`'s storage), so
/// every slot is simulated.
void schedule_sfq_into(const TaskSystem& sys, const SfqOptions& opts,
                       SlotSchedule& out);

}  // namespace pfair
