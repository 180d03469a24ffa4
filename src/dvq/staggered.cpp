#include "dvq/staggered.hpp"

#include <algorithm>
#include <vector>

#include "sched/sfq_scheduler.hpp"

namespace pfair {

DvqSchedule schedule_staggered(const TaskSystem& sys, const YieldModel& yields,
                               const StaggeredOptions& opts) {
  const std::int64_t slot_limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  const PriorityOrder order(sys, opts.policy);
  DvqSchedule sched(sys);

  const auto n_tasks = static_cast<std::size_t>(sys.num_tasks());
  const auto n_procs = static_cast<std::size_t>(sys.processors());

  std::vector<std::int64_t> head(n_tasks, 0);
  std::vector<Time> pred_completion(n_tasks);  // completion of last subtask

  // Processor k's boundary offset within a slot.
  std::vector<Time> offset(n_procs);
  for (std::size_t k = 0; k < n_procs; ++k) {
    offset[k] = Time::ticks(static_cast<std::int64_t>(k) * kTicksPerSlot /
                            static_cast<std::int64_t>(n_procs));
  }

  std::int64_t remaining = sys.total_subtasks();

  // Walk slot boundaries in global time order: slot n, processors 0..M-1
  // (offsets are nondecreasing in k, so this is chronological).  At each
  // boundary the owning processor is idle by construction (its previous
  // quantum has ended), and picks the single highest-priority ready
  // subtask.
  for (std::int64_t n = 0; n < slot_limit && remaining > 0; ++n) {
    for (std::size_t k = 0; k < n_procs && remaining > 0; ++k) {
      const Time t = Time::slots(n) + offset[k];
      // Find the highest-priority ready subtask at t.
      SubtaskRef best;
      for (std::size_t j = 0; j < n_tasks; ++j) {
        const Task& task = sys.task(static_cast<std::int64_t>(j));
        const std::int64_t h = head[j];
        if (h >= task.num_subtasks()) continue;
        const Subtask& s = task.subtask(h);
        if (Time::slots(s.eligible) > t) continue;
        if (h > 0 && pred_completion[j] > t) continue;
        const SubtaskRef ref{static_cast<std::int32_t>(j),
                             static_cast<std::int32_t>(h)};
        if (!best.valid() || order.higher(ref, best)) best = ref;
      }
      if (!best.valid()) continue;
      const Time c = yields.checked_cost(sys, best);
      sched.place(best, t, c, static_cast<int>(k));
      const auto j = static_cast<std::size_t>(best.task);
      ++head[j];
      pred_completion[j] = t + c;
      --remaining;
    }
  }
  return sched;
}

}  // namespace pfair
