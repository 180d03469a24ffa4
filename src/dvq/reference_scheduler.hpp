// The naive DVQ scheduler: the correctness oracle and the explain path.
//
// This is the pre-optimization hot path of DvqSimulator: one bag-style
// event queue of bare timestamps (duplicates and all), a full O(n) task
// scan for the ready set at every event instant, and a fresh
// partial_sort with the branchy PriorityOrder comparator.  The
// production scheduler (`schedule_dvq` / DvqSimulator) replaced that
// with a time-ordered list of completions, a slot calendar of readiness
// instants plus completion hand-offs, and packed priority keys; the A/B
// equivalence suite asserts both produce
// bit-identical schedules, and `bench_scaling` measures the gap.
// Deliberately simple — do not optimize this function.
//
// As for the SFQ reference, it is also the one source of the explain
// events: with `opts.trace` / `opts.metrics` set it reports free
// processors, ready sets, comparisons, ready subtasks left unserved and
// idle capacity at every instant, alongside decision events that are
// byte-identical to the fast path's.  `schedule_dvq` routes every sink
// that asks for explain events (a DvqDecisionSink, say) here.
#pragma once

#include "dvq/dvq_scheduler.hpp"

namespace pfair {

/// Reference counterpart of `schedule_dvq` (same options).  With
/// `trace` / `metrics` set this is an explain run: every event kind is
/// reported, sched.comparisons is counted, and — after the run, if the
/// schedule is complete — `quality` and the sched.preemptions /
/// .migrations / .idle_quanta metrics are filled from recount_quality
/// (a truncated explain run leaves them untouched).  The arena and
/// cycle_detect options are ignored.
[[nodiscard]] DvqSchedule schedule_dvq_reference(const TaskSystem& sys,
                                                 const YieldModel& yields,
                                                 const DvqOptions& opts = {});

}  // namespace pfair
