// The naive SFQ scheduler: the correctness oracle.
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
// With `opts.trace` set it reports the same event stream as the fast
// path, byte for byte: the decision events and, when the sink asks for
// them, each decision's canonical explanation (obs/trace.hpp,
// kExplainTraceEvents) — here derived from the full scan, the sorted
// winners and PriorityOrder::compare, sharing nothing with the
// simulators' heap.  That makes it the oracle of the explanation too.
// Observing never influences a decision.
#pragma once

#include <functional>
#include <vector>

#include "obs/probe.hpp"
#include "sched/sfq_scheduler.hpp"

namespace pfair {

/// Reference counterpart of `schedule_sfq` (same options).  With
/// `trace` / `metrics` set it reports the events and sched.* metrics of
/// the fast path; after the run, if the schedule is complete, `quality`
/// and the sched.preemptions / .migrations / .idle_quanta metrics are
/// filled from recount_quality (a truncated run leaves them untouched).
/// The arena and cycle_detect options are ignored.
[[nodiscard]] SlotSchedule schedule_sfq_reference(const TaskSystem& sys,
                                                  const SfqOptions& opts = {});

namespace detail {
/// Both reference schedulers' winner selection: partial_sort of the `m`
/// highest-priority subtasks of `ready` to its front, in
/// PriorityOrder::higher order.
void sort_ready(const PriorityOrder& order, std::vector<SubtaskRef>& ready,
                std::size_t m);
/// Both reference schedulers' explanation once the `m` winners at the
/// front of `ready` are placed: if any subtask was denied, the cut (the
/// last winner against the best of the rest, ruled by
/// PriorityOrder::compare), then kPreempt, in ascending task order, for
/// each denied subtask that `preempted` holds for.  Sorts the denied.
void explain_denials(const PriorityOrder& order,
                     std::vector<SubtaskRef>& ready, std::size_t m,
                     const std::function<bool(const SubtaskRef&)>& preempted,
                     SchedProbe& probe, Time at);
}  // namespace detail

}  // namespace pfair
