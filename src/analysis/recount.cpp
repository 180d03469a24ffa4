#include "analysis/recount.hpp"

#include <algorithm>
#include <vector>

#include "core/assert.hpp"
#include "core/time.hpp"

namespace pfair {

namespace detail {

void count_switches(std::span<const ProcCell> by_time,
                    QualityCounters& q) {
  const std::size_t procs = q.per_proc_switches.size();
  std::vector<std::int32_t> occupant(procs, -1);
  for (const ProcCell& c : by_time) {
    PFAIR_REQUIRE(c.proc >= 0 && static_cast<std::size_t>(c.proc) < procs,
                  "placement on processor " << c.proc << " of " << procs);
    std::int32_t& last = occupant[static_cast<std::size_t>(c.proc)];
    if (last == c.task) continue;
    if (last >= 0) {
      ++q.context_switches;
      ++q.per_proc_switches[static_cast<std::size_t>(c.proc)];
    }
    last = c.task;
  }
}

}  // namespace detail

QualityCounters recount_quality(const TaskSystem& sys,
                                const SlotSchedule& sched) {
  PFAIR_REQUIRE(sched.complete(), "quality recount requires a complete "
                                  "schedule");
  QualityCounters q;
  const std::int64_t procs = sys.processors();
  q.resize_procs(static_cast<std::size_t>(procs));
  // The simulator steps one decision per slot and stops the step after
  // the last placement.
  q.decision_points = sched.horizon();
  std::int64_t placed_total = 0;
  std::vector<detail::ProcCell> cells;
  cells.reserve(static_cast<std::size_t>(sys.total_subtasks()));
  for (std::int32_t k = 0; k < sched.num_tasks(); ++k) {
    SubtaskCursor subs(sys.task(k));
    SlotPlacement prev;
    sched.walk_task(k, [&](std::int32_t s, const SlotPlacement& pl) {
      const std::int64_t eligible = subs.next().eligible;
      ++placed_total;
      cells.push_back(detail::ProcCell{pl.slot, pl.proc, k});
      if (s > 0) {
        if (prev.proc != pl.proc) ++q.migrations;
        // The task ran at prev.slot, its next subtask was ready at
        // prev.slot + 1 (eligible, predecessor done) but did not run
        // there: one preemption, charged at that slot.  Later waiting
        // slots are not re-charged — the incremental path only
        // considers the previous slot's occupants.
        if (pl.slot > prev.slot + 1 && eligible <= prev.slot + 1) {
          ++q.preemptions;
        }
      }
      prev = pl;
    });
  }
  q.idle_slots = q.decision_points * procs - placed_total;

  // Order the placements by slot for the switch sweep: a stable
  // counting sort when the slots are dense enough, else a comparison
  // sort (a hand-built schedule with one far-out slot must not cost
  // O(horizon) memory).  Either way each processor's cells end up in
  // (slot, task) order, which is all the sweep reads.
  const std::int64_t horizon = sched.horizon();
  if (horizon <= 4 * placed_total) {
    std::vector<std::int64_t> first(static_cast<std::size_t>(horizon) + 1, 0);
    for (const detail::ProcCell& c : cells) {
      ++first[static_cast<std::size_t>(c.at) + 1];
    }
    for (std::size_t t = 1; t < first.size(); ++t) first[t] += first[t - 1];
    std::vector<detail::ProcCell> by_slot(cells.size());
    for (const detail::ProcCell& c : cells) {
      by_slot[static_cast<std::size_t>(first[static_cast<std::size_t>(c.at)]++)] =
          c;
    }
    cells.swap(by_slot);
  } else {
    std::sort(cells.begin(), cells.end(), detail::cell_before);
  }
  detail::count_switches(cells, q);
  return q;
}

}  // namespace pfair
