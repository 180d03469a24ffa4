// The DVQ half of analysis/recount.hpp.  It is compiled into pfair_dvq
// (the SFQ half into pfair_sched) so each model's explain run can fill
// the quality counters from this oracle after the reference scheduler
// finishes.
#include <algorithm>
#include <iterator>
#include <vector>

#include "analysis/recount.hpp"
#include "core/assert.hpp"
#include "core/radix_sort.hpp"
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
  const auto total = static_cast<std::size_t>(sys.total_subtasks());
  std::vector<std::int64_t> readies;
  std::vector<std::int64_t> ends;
  std::vector<detail::ProcCell> cells;
  readies.reserve(total);
  ends.reserve(total);
  cells.reserve(total);
  for (std::int32_t k = 0; k < sched.num_tasks(); ++k) {
    SubtaskCursor subs(sys.task(k));
    std::int64_t prev_end = 0;
    int prev_proc = -1;
    sched.walk_task(k, [&](std::int32_t s, const DvqPlacement& pl) {
      const std::int64_t elig =
          Time::slots(subs.next().eligible).raw_ticks();
      const std::int64_t start = pl.start.raw_ticks();
      readies.push_back(s == 0 ? elig : std::max(elig, prev_end));
      ends.push_back(pl.completion().raw_ticks());
      cells.push_back(detail::ProcCell{start, pl.proc, k});
      if (s > 0) {
        if (prev_proc != pl.proc) ++q.migrations;
        if (start > prev_end && elig <= prev_end) ++q.preemptions;
      }
      prev_end = pl.completion().raw_ticks();
      prev_proc = pl.proc;
    });
  }
  // Cells sorted by start time double as the sorted start list.  Radix
  // sorts (core/radix_sort.hpp) keep every ordering O(N).
  {
    std::vector<detail::ProcCell> scratch;
    sort_by_key(
        cells, scratch, [](const detail::ProcCell& c) { return c.at; },
        detail::cell_before);
  }
  detail::count_switches(cells, q);
  if (cells.empty()) return q;
  {
    std::vector<std::int64_t> scratch;
    sort_int64(readies, scratch);
    sort_int64(ends, scratch);
  }

  // Decision instants: every readiness instant, plus every completion at
  // or before the last start (the simulator stops once all work is
  // placed, so later completions are never stepped) — a merge of the
  // two sorted lists.
  const std::int64_t t_last = cells.back().at;
  std::vector<std::int64_t> instants;
  instants.reserve(readies.size() + ends.size());
  std::merge(readies.begin(), readies.end(), ends.begin(),
             std::upper_bound(ends.begin(), ends.end(), t_last),
             std::back_inserter(instants));
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());

  // One sweep, three monotone cursors, for decision points and idle
  // capacity.  At each instant t (before that instant's dispatch):
  // busy = started strictly before t and not yet completed; placed =
  // the batch dispatched exactly at t.  Every free processor the batch
  // leaves unfilled idles for this decision instant.
  std::size_t i_start_lt = 0; // start < t
  std::size_t i_start_le = 0; // start <= t
  std::size_t i_end_le = 0;   // completion <= t
  for (const std::int64_t t : instants) {
    while (i_start_lt < cells.size() && cells[i_start_lt].at < t) {
      ++i_start_lt;
    }
    while (i_start_le < cells.size() && cells[i_start_le].at <= t) {
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
