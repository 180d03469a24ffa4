#include "sched/reference_scheduler.hpp"

#include <algorithm>
#include <vector>

#include "analysis/recount.hpp"

namespace pfair {

namespace detail {

void sort_ready(const PriorityOrder& order, std::vector<SubtaskRef>& ready,
                std::size_t m, SchedProbe& probe, Time at) {
  const auto mid = ready.begin() + static_cast<std::ptrdiff_t>(m);
  if (!probe.enabled()) {
    std::partial_sort(ready.begin(), mid, ready.end(),
                      [&order](const SubtaskRef& a, const SubtaskRef& b) {
                        return order.higher(a, b);
                      });
    return;
  }
  // The same strict order as order.higher, with every comparison and
  // its deciding rule reported on the side.
  std::int64_t ncmp = 0;
  std::partial_sort(ready.begin(), mid, ready.end(),
                    [&](const SubtaskRef& a, const SubtaskRef& b) {
                      ++ncmp;
                      TieRule rule = TieRule::kTie;
                      const int c = order.compare(a, b, &rule);
                      const bool a_wins = c != 0 ? c < 0 : a < b;
                      probe.compare_outcome(at, a_wins ? a : b,
                                            a_wins ? b : a, rule);
                      return a_wins;
                    });
  probe.comparisons(ncmp);
}

}  // namespace detail

SlotSchedule schedule_sfq_reference(const TaskSystem& sys,
                                    const SfqOptions& opts) {
  const std::int64_t limit =
      opts.horizon_limit > 0 ? opts.horizon_limit : default_horizon(sys);
  const PriorityOrder order(sys, opts.policy);
  SlotSchedule sched(sys);
  SchedProbe probe;
  probe.set_sink(opts.trace);
  if (opts.metrics != nullptr) probe.attach_metrics(*opts.metrics);
  const bool explain = probe.enabled();

  const auto n = static_cast<std::size_t>(sys.num_tasks());
  const auto procs = static_cast<std::size_t>(sys.processors());
  std::vector<std::int64_t> head(n, 0);
  std::vector<std::int64_t> last_slot(n, -1);
  std::int64_t remaining = sys.total_subtasks();

  for (std::int64_t now = 0; now < limit && remaining > 0; ++now) {
    const Time at = Time::slots(now);
    if (explain) probe.begin_decision(TraceEventKind::kSlotBegin, at, now);
    // Full ready scan: each task's next unscheduled subtask, provided it
    // is eligible and its predecessor ran in an earlier slot.
    std::vector<SubtaskRef> ready;
    for (std::size_t k = 0; k < n; ++k) {
      const Task& task = sys.task(static_cast<std::int64_t>(k));
      const std::int64_t h = head[k];
      if (h >= task.num_subtasks()) continue;
      const Subtask& s = task.subtask(h);
      if (s.eligible > now) continue;
      if (h > 0 && last_slot[k] >= now) continue;
      ready.push_back(SubtaskRef{static_cast<std::int32_t>(k),
                                 static_cast<std::int32_t>(h)});
    }
    const auto m = std::min<std::size_t>(procs, ready.size());
    if (explain) probe.ready_set(at, static_cast<std::int64_t>(ready.size()));
    detail::sort_ready(order, ready, m, probe, at);
    if (explain) {
      // Tasks that held a processor in the previous slot and are ready
      // but lost out in this one are denied (a task that never ran holds
      // last_slot -1, which slot 0 must not read as its previous slot);
      // unused capacity is idle.
      for (std::size_t r = m; r < ready.size(); ++r) {
        const auto k = static_cast<std::size_t>(ready[r].task);
        if (now > 0 && last_slot[k] == now - 1) probe.preempt(at, ready[r]);
      }
      if (m < procs) probe.idle(at, static_cast<std::int64_t>(procs - m));
    }
    for (std::size_t r = 0; r < m; ++r) {
      const SubtaskRef ref = ready[r];
      const int proc = static_cast<int>(r);
      sched.place(ref, now, proc);
      if (explain) {
        probe.place(at, ref, proc, now);
        if (ref.seq > 0) {
          const int prev =
              sched.placement(SubtaskRef{ref.task, ref.seq - 1}).proc;
          if (prev != proc) probe.migrate(at, ref, prev, proc);
        }
        const std::int64_t tard = std::max<std::int64_t>(
            0, now + 1 - sys.subtask(ref).deadline);
        probe.deadline(at, ref, tard * kTicksPerSlot);
      }
      const auto k = static_cast<std::size_t>(ref.task);
      ++head[k];
      last_slot[k] = now;
      --remaining;
    }
    if (explain) probe.end_decision();
  }

  add_recount(sys, sched, opts.quality, opts.metrics);
  return sched;
}

}  // namespace pfair
