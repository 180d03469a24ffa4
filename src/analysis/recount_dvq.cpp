// The DVQ half of analysis/recount.hpp.  It is compiled into pfair_dvq
// (the SFQ half into pfair_sched) so each model's explain run can fill
// the quality counters from this oracle after the reference scheduler
// finishes.
#include <algorithm>
#include <vector>

#include "analysis/recount.hpp"
#include "core/assert.hpp"
#include "core/time.hpp"

namespace pfair {

QualityCounters recount_quality(const TaskSystem& sys,
                                const DvqSchedule& sched) {
  PFAIR_REQUIRE(sched.complete(), "quality recount requires a complete "
                                  "schedule");
  QualityCounters q;
  const std::int64_t procs = sys.processors();
  q.resize_procs(static_cast<std::size_t>(procs));

  // Gather (readiness, start, end) per subtask in ticks, reproducing the
  // simulator's readiness rule: max of the slot-aligned eligibility and
  // the predecessor's completion.  Migrations and preemptions fall out
  // of the per-task scan directly: a preemption is a subtask that was
  // ready the instant its predecessor completed (eligibility already
  // passed) yet starts strictly later.
  std::vector<std::int64_t> readies;
  std::vector<std::int64_t> starts;
  std::vector<std::int64_t> ends;
  std::vector<detail::ProcCell> cells;
  for (std::int64_t k = 0; k < sched.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    std::int64_t prev_end = 0;
    for (std::int64_t s = 0; s < sched.num_subtasks(k); ++s) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(s)};
      const DvqPlacement& pl = sched.placement(ref);
      const std::int64_t elig =
          Time::slots(task.eligible_at(s)).raw_ticks();
      const std::int64_t start = pl.start.raw_ticks();
      readies.push_back(s == 0 ? elig : std::max(elig, prev_end));
      starts.push_back(start);
      ends.push_back(pl.completion().raw_ticks());
      cells.push_back(
          detail::ProcCell{pl.proc, start, static_cast<std::int32_t>(k)});
      if (s > 0) {
        if (sched.placement(SubtaskRef{ref.task, ref.seq - 1}).proc !=
            pl.proc) {
          ++q.migrations;
        }
        if (start > prev_end && elig <= prev_end) ++q.preemptions;
      }
      prev_end = pl.completion().raw_ticks();
    }
  }
  detail::count_switches(cells, q);
  if (starts.empty()) return q;

  // Decision instants: every readiness instant, plus every completion at
  // or before the last start (the simulator stops once all work is
  // placed, so later completions are never stepped).
  const std::int64_t t_last =
      *std::max_element(starts.begin(), starts.end());
  std::vector<std::int64_t> instants;
  instants.reserve(readies.size() + ends.size());
  instants.insert(instants.end(), readies.begin(), readies.end());
  for (const std::int64_t e : ends) {
    if (e <= t_last) instants.push_back(e);
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());

  std::sort(readies.begin(), readies.end());
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());

  // One sweep, three monotone cursors, for decision points and idle
  // capacity.  At each instant t (before that instant's dispatch):
  // busy = started strictly before t and not yet completed; placed =
  // the batch dispatched exactly at t.  Every free processor the batch
  // leaves unfilled idles for this decision instant.
  std::size_t i_start_lt = 0; // start < t
  std::size_t i_start_le = 0; // start <= t
  std::size_t i_end_le = 0;   // completion <= t
  for (const std::int64_t t : instants) {
    while (i_start_lt < starts.size() && starts[i_start_lt] < t) {
      ++i_start_lt;
    }
    while (i_start_le < starts.size() && starts[i_start_le] <= t) {
      ++i_start_le;
    }
    while (i_end_le < ends.size() && ends[i_end_le] <= t) ++i_end_le;

    ++q.decision_points;
    const std::int64_t busy = static_cast<std::int64_t>(i_start_lt) -
                              static_cast<std::int64_t>(i_end_le);
    const std::int64_t free0 = procs - busy;
    if (free0 <= 0) continue;  // readiness event with every CPU busy
    const std::int64_t placed = static_cast<std::int64_t>(i_start_le) -
                                static_cast<std::int64_t>(i_start_lt);
    if (placed < free0) q.idle_slots += free0 - placed;
  }
  return q;
}

}  // namespace pfair
