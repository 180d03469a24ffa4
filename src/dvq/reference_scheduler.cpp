#include "dvq/reference_scheduler.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "analysis/recount.hpp"
#include "core/assert.hpp"
#include "sched/reference_scheduler.hpp"

namespace pfair {

DvqSchedule schedule_dvq_reference(const TaskSystem& sys,
                                   const YieldModel& yields,
                                   const DvqOptions& opts) {
  const std::int64_t slot_limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  const Time time_limit = Time::slots(slot_limit);
  const PriorityOrder order(sys, opts.policy);
  DvqSchedule sched(sys);
  SchedProbe probe;
  probe.set_sink(opts.trace);
  if (opts.metrics != nullptr) probe.attach_metrics(*opts.metrics);
  const bool explain = probe.enabled();

  struct Proc {
    bool busy = false;
    Time busy_until;
    SubtaskRef running;
  };
  std::vector<Proc> procs(static_cast<std::size_t>(sys.processors()));
  const auto n = static_cast<std::size_t>(sys.num_tasks());
  std::vector<std::int64_t> head(n, 0);
  std::vector<Time> ready_at(n);
  // The pre-optimization event queue: a bag of bare timestamps, one push
  // per completion and per readiness advance, duplicates drained in the
  // pop loop.
  std::priority_queue<Time, std::vector<Time>, std::greater<Time>> events;
  std::int64_t remaining = sys.total_subtasks();

  for (std::size_t k = 0; k < n; ++k) {
    const Task& task = sys.task(static_cast<std::int64_t>(k));
    if (task.num_subtasks() > 0) {
      ready_at[k] = Time::slots(task.subtask(0).eligible);
      events.push(ready_at[k]);
    }
  }

  while (remaining > 0 && !events.empty() && events.top() < time_limit) {
    const Time t = events.top();
    while (!events.empty() && events.top() == t) events.pop();

    // 1. Retire completions at t; newly-ready successors join this batch.
    for (auto& pr : procs) {
      if (pr.busy && pr.busy_until <= t) {
        PFAIR_ASSERT(pr.busy_until == t);
        pr.busy = false;
        const auto k = static_cast<std::size_t>(pr.running.task);
        const Task& task = sys.task(pr.running.task);
        const std::int64_t next = pr.running.seq + 1;
        if (next < task.num_subtasks()) {
          const Time elig = Time::slots(task.subtask(next).eligible);
          ready_at[k] = std::max(elig, t);
          if (ready_at[k] > t) events.push(ready_at[k]);
        }
      }
    }
    if (explain) probe.begin_decision(TraceEventKind::kEventBegin, t);

    // 2. Free processors and ready subtasks.
    std::vector<int> free_procs;
    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
      if (!procs[pi].busy) free_procs.push_back(static_cast<int>(pi));
    }
    if (free_procs.empty()) {
      if (explain) probe.end_decision();
      continue;
    }
    if (explain) {
      for (const int p : free_procs) probe.proc_free(t, p);
    }
    std::vector<SubtaskRef> ready;
    for (std::size_t k = 0; k < n; ++k) {
      const Task& task = sys.task(static_cast<std::int64_t>(k));
      if (head[k] >= task.num_subtasks()) continue;
      if (ready_at[k] > t) continue;
      ready.push_back(SubtaskRef{static_cast<std::int32_t>(k),
                                 static_cast<std::int32_t>(head[k])});
    }
    if (explain) probe.ready_set(t, static_cast<std::int64_t>(ready.size()));

    // 3. Assign in priority order, immediately (work-conserving).
    const auto m = std::min(free_procs.size(), ready.size());
    detail::sort_ready(order, ready, m);
    for (std::size_t r = 0; r < m; ++r) {
      const SubtaskRef ref = ready[r];
      const Time c = yields.checked_cost(sys, ref);
      const int proc = free_procs[r];
      sched.place(ref, t, c, proc);
      if (explain) {
        probe.place(t, ref, proc, c.raw_ticks());
        if (ref.seq > 0) {
          const int prev =
              sched.placement(SubtaskRef{ref.task, ref.seq - 1}).proc;
          if (prev != proc) probe.migrate(t, ref, prev, proc);
        }
        const std::int64_t tard = std::max<std::int64_t>(
            0, (t + c).raw_ticks() -
                   sys.subtask(ref).deadline * kTicksPerSlot);
        probe.deadline(t, ref, tard);
      }
      Proc& pr = procs[static_cast<std::size_t>(proc)];
      pr.busy = true;
      pr.busy_until = t + c;
      pr.running = ref;
      events.push(pr.busy_until);
      const auto k = static_cast<std::size_t>(ref.task);
      ++head[k];
      --remaining;
      const Task& task_k = sys.task(ref.task);
      if (head[k] < task_k.num_subtasks()) {
        ready_at[k] = std::max(
            Time::slots(task_k.subtask(head[k]).eligible), pr.busy_until);
      }
    }
    if (explain) {
      // A denied subtask whose predecessor completed at t, when it was
      // already eligible, is preempted (the recount's rule); capacity
      // beyond the ready set is idle.
      detail::explain_denials(
          order, ready, m,
          [&](const SubtaskRef& ref) {
            if (ref.seq == 0) return false;
            return sched.placement(SubtaskRef{ref.task, ref.seq - 1})
                           .completion() == t &&
                   Time::slots(sys.subtask(ref).eligible) <= t;
          },
          probe, t);
      probe.idle(t, static_cast<std::int64_t>(free_procs.size() - m));
      probe.end_decision();
    }
  }

  add_recount(sys, sched, opts.quality, opts.metrics);
  return sched;
}

}  // namespace pfair
