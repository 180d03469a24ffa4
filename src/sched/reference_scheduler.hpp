// The naive SFQ scheduler: the correctness oracle and the explain path.
//
// This is the pre-optimization hot path of SfqSimulator: at every slot,
// scan all n tasks for ready heads into a fresh vector and partial_sort
// the M winners with the branchy PriorityOrder comparator — O(n) per
// decision.  The production scheduler (`schedule_sfq` / SfqSimulator)
// replaced that with incremental ready-set maintenance and packed keys;
// the A/B equivalence suite asserts both produce bit-identical
// schedules over randomized task systems, and `bench_scaling` measures
// the gap.  Deliberately simple and allocation-happy — do not optimize
// this function.
//
// Because it scans and sorts every decision anyway, it is also the one
// source of the explain events (obs/trace.hpp, kExplainTraceEvents):
// with `opts.trace` / `opts.metrics` set it reports the full event
// stream — ready sets, every comparison and its deciding rule, ready
// tasks denied a processor, idle capacity — alongside the decision
// events, which are byte-identical to the fast path's.  `schedule_sfq`
// routes every sink that asks for explain events here.  Observing
// never influences a decision.
#pragma once

#include <vector>

#include "obs/probe.hpp"
#include "sched/sfq_scheduler.hpp"

namespace pfair {

/// Reference counterpart of `schedule_sfq` (same options).  With
/// `trace` / `metrics` set this is an explain run: every event kind is
/// reported, sched.comparisons is counted, and — after the run, if the
/// schedule is complete — `quality` and the sched.preemptions /
/// .migrations / .idle_quanta metrics are filled from recount_quality
/// (a truncated explain run leaves them untouched).  The arena and
/// cycle_detect options are ignored.
[[nodiscard]] SlotSchedule schedule_sfq_reference(const TaskSystem& sys,
                                                  const SfqOptions& opts = {});

namespace detail {
/// Both reference schedulers' winner selection: partial_sort of the `m`
/// highest-priority subtasks of `ready` to its front, in
/// PriorityOrder::higher order.  In an explain run (`probe` enabled)
/// every comparison is reported with its deciding rule and the count is
/// tallied; the order is the same either way.
void sort_ready(const PriorityOrder& order, std::vector<SubtaskRef>& ready,
                std::size_t m, SchedProbe& probe, Time at);
}  // namespace detail

}  // namespace pfair
