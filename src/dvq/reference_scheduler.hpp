// The naive DVQ scheduler: the correctness oracle.
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
// As the SFQ reference does, it reports the fast path's event stream
// byte for byte, each decision's canonical explanation included when the
// sink asks for it (obs/trace.hpp, kExplainTraceEvents), derived here
// from the full scan, the sorted winners, the hand-offs of each instant
// and PriorityOrder::compare.  It is the explanation's oracle, and
// replay_bundle's engine (obs/capture.hpp).
#pragma once

#include "dvq/dvq_scheduler.hpp"

namespace pfair {

/// Reference counterpart of `schedule_dvq` (same options).  With
/// `trace` / `metrics` set it reports the events and sched.* metrics of
/// the fast path; after the run, if the schedule is complete, `quality`
/// and the sched.preemptions / .migrations / .idle_quanta metrics are
/// filled from recount_quality (a truncated run leaves them untouched).
/// The arena and cycle_detect options are ignored.
[[nodiscard]] DvqSchedule schedule_dvq_reference(const TaskSystem& sys,
                                                 const YieldModel& yields,
                                                 const DvqOptions& opts = {});

}  // namespace pfair
