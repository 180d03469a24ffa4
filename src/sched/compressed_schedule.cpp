#include "sched/compressed_schedule.hpp"

#include <algorithm>

#include "obs/probe.hpp"

namespace pfair {

void replay_decisions(const TaskSystem& sys, const CycleSchedule& sched,
                      TraceSink& sink) {
  struct Placed {
    std::int64_t slot;
    int proc;
    SubtaskRef ref;
  };
  std::vector<Placed> placed;
  for (std::int64_t k = 0; k < sched.num_tasks(); ++k) {
    for (std::int64_t s = 0; s < sched.num_subtasks(k); ++s) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(s)};
      const SlotPlacement pl = sched.placement(ref);
      if (pl.scheduled()) placed.push_back(Placed{pl.slot, pl.proc, ref});
    }
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& a, const Placed& b) {
              return a.slot != b.slot ? a.slot < b.slot : a.proc < b.proc;
            });
  SchedProbe probe;
  probe.set_sink(&sink);
  std::size_t i = 0;
  for (std::int64_t slot = 0; slot < sched.horizon(); ++slot) {
    const Time at = Time::slots(slot);
    probe.begin_decision(TraceEventKind::kSlotBegin, at, slot);
    for (; i < placed.size() && placed[i].slot == slot; ++i) {
      const Placed& p = placed[i];
      probe.place(at, p.ref, p.proc, slot);
      if (p.ref.seq > 0) {
        const SlotPlacement prev =
            sched.placement(SubtaskRef{p.ref.task, p.ref.seq - 1});
        if (prev.proc >= 0 && prev.proc != p.proc) {
          probe.migrate(at, p.ref, prev.proc, p.proc);
        }
      }
      const std::int64_t tard = std::max<std::int64_t>(
          0, slot + 1 - sys.subtask(p.ref).deadline);
      probe.deadline(at, p.ref, tard * kTicksPerSlot);
    }
    probe.end_decision();
  }
}

}  // namespace pfair
