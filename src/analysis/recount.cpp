#include "analysis/recount.hpp"

#include <algorithm>
#include <vector>

#include "core/assert.hpp"
#include "core/time.hpp"

namespace pfair {

namespace detail {

// Context switches from placements alone: sort each processor's
// placements by time; every adjacent pair with different tasks is one
// switch (idle gaps do not reset the previous occupant).
void count_switches(std::vector<ProcCell>& cells, QualityCounters& q) {
  std::sort(cells.begin(), cells.end(),
            [](const ProcCell& a, const ProcCell& b) {
              return a.proc != b.proc ? a.proc < b.proc : a.at < b.at;
            });
  for (std::size_t i = 1; i < cells.size(); ++i) {
    if (cells[i].proc != cells[i - 1].proc) continue;
    if (cells[i].task == cells[i - 1].task) continue;
    ++q.context_switches;
    ++q.per_proc_switches[static_cast<std::size_t>(cells[i].proc)];
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
  for (std::int64_t k = 0; k < sched.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int64_t s = 0; s < sched.num_subtasks(k); ++s) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(s)};
      const SlotPlacement pl = sched.placement(ref);
      ++placed_total;
      cells.push_back(
          detail::ProcCell{pl.proc, pl.slot, static_cast<std::int32_t>(k)});
      if (s == 0) continue;
      const SlotPlacement prev =
          sched.placement(SubtaskRef{ref.task, ref.seq - 1});
      if (prev.proc != pl.proc) ++q.migrations;
      // The task ran at prev.slot, its next subtask was ready at
      // prev.slot + 1 (eligible, predecessor done) but did not run
      // there: one preemption, charged at that slot.  Later waiting
      // slots are not re-charged — the incremental path only considers
      // the previous slot's occupants.
      if (pl.slot > prev.slot + 1 && task.eligible_at(s) <= prev.slot + 1) {
        ++q.preemptions;
      }
    }
  }
  q.idle_slots = q.decision_points * procs - placed_total;
  detail::count_switches(cells, q);
  return q;
}

}  // namespace pfair
