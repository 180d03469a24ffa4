#include "analysis/tardiness.hpp"

#include <algorithm>

#include "dvq/dvq_cycle.hpp"
#include "sched/compressed_schedule.hpp"

namespace pfair {

namespace {

bool placed(const SlotPlacement& p) { return p.scheduled(); }
bool placed(const DvqPlacement& p) { return p.placed; }

/// Eq. (7) in slots; completion in the SFQ model is slot + 1.
std::int64_t tardiness_slots(const Subtask& sub, const SlotPlacement& p) {
  return std::max<std::int64_t>(0, p.slot + 1 - sub.deadline);
}
/// Eq. (7) in ticks, for either model.
std::int64_t tardiness_ticks(const Subtask& sub, const SlotPlacement& p) {
  return tardiness_slots(sub, p) * kTicksPerSlot;
}
std::int64_t tardiness_ticks(const Subtask& sub, const DvqPlacement& p) {
  const Time late = p.completion() - Time::slots(sub.deadline);
  return std::max<std::int64_t>(0, late.raw_ticks());
}

/// Zips task k's subtask cursor with the schedule's placement walk:
/// f(ref, tardiness ticks), or f(ref, -1) for an unscheduled subtask.
/// The one per-subtask loop behind every summary below, for all four
/// schedule types.
template <class Sched, class F>
void walk_tardiness(const TaskSystem& sys, const Sched& sched,
                    std::int32_t k, F&& f) {
  SubtaskCursor subs(sys.task(k));
  sched.walk_task(k, [&](std::int32_t s, const auto& p) {
    const Subtask sub = subs.next();
    f(SubtaskRef{k, s}, placed(p) ? tardiness_ticks(sub, p) : -1);
  });
}

/// Adds one subtask's tardiness in ticks (-1: unscheduled) to `sum`.
/// `worst` moves only on a strictly greater value, so it names the
/// first subtask in walk order attaining max_ticks.
void tally(TardinessSummary& sum, const SubtaskRef& ref, std::int64_t t) {
  ++sum.total_subtasks;
  if (t < 0) {
    ++sum.unscheduled;
  } else if (t > 0) {
    ++sum.late_subtasks;
    sum.total_ticks += t;
    if (t > sum.max_ticks) {
      sum.max_ticks = t;
      sum.worst = ref;
    }
  }
}

template <class Sched>
TardinessSummary measure(const TaskSystem& sys, const Sched& sched) {
  TardinessSummary sum;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    walk_tardiness(sys, sched, k, [&](const SubtaskRef& ref, std::int64_t t) {
      tally(sum, ref, t);
    });
  }
  return sum;
}

/// measure() on a compressed schedule that repeats exactly: synthesized
/// cycle 1 is walked, and cycles 2..m — whose tardiness values repeat
/// cycle 1's, placements and deadlines both shifted C — add its counts
/// and sums m - 1 more times.  max_ticks and worst stay cycle 1's: a
/// later cycle only ties, and ties never move `worst`.
template <class Sched>
TardinessSummary measure_once(const TaskSystem& sys, const Sched& sched) {
  const std::int64_t repeats = sched.stats().cycles_skipped - 1;
  TardinessSummary sum;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    SubtaskCursor subs(sys.task(k));
    TardinessSummary first;  // synthesized cycle 1 alone
    sched.walk_task_once(
        k,
        [&](std::int32_t s, const auto& p, SpliceRegion r) {
          if (r == SpliceRegion::kLast) return;
          const Subtask sub = subs.next();
          const std::int64_t t = placed(p) ? tardiness_ticks(sub, p) : -1;
          tally(sum, SubtaskRef{k, s}, t);
          if (r == SpliceRegion::kFirst) tally(first, SubtaskRef{k, s}, t);
        },
        [&](std::int64_t count, const auto&) {
          subs.skip(count);
          sum.total_subtasks += repeats * first.total_subtasks;
          sum.late_subtasks += repeats * first.late_subtasks;
          sum.total_ticks += repeats * first.total_ticks;
        });
  }
  return sum;
}

template <class Sched>
TardinessSummary measure_compressed(const TaskSystem& sys,
                                    const Sched& sched) {
  return sched.repeats_exactly(sys) ? measure_once(sys, sched)
                                    : measure(sys, sched);
}

template <class Sched>
std::vector<std::int64_t> values(const TaskSystem& sys, const Sched& sched) {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(sys.total_subtasks()));
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    walk_tardiness(sys, sched, k, [&](const SubtaskRef&, std::int64_t t) {
      if (t >= 0) out.push_back(t);
    });
  }
  return out;
}

template <class Sched>
void record_metrics(const TaskSystem& sys, const Sched& sched,
                    MetricsRegistry& reg) {
  std::int64_t max_ticks = 0, unscheduled = 0;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    Histogram& per_task =
        reg.histogram("task." + sys.task(k).name() + ".tardiness_ticks");
    walk_tardiness(sys, sched, k, [&](const SubtaskRef&, std::int64_t t) {
      if (t < 0) {
        ++unscheduled;
        return;
      }
      per_task.add(t);
      max_ticks = std::max(max_ticks, t);
    });
  }
  reg.gauge("sched.tardiness_max_ticks").set_max(max_ticks);
  reg.gauge("sched.unscheduled_subtasks").set(unscheduled);
}

/// The placement of `ref` for the single-subtask functions, which
/// require it to be scheduled.
template <class Sched>
auto scheduled_placement(const Sched& sched, const SubtaskRef& ref) {
  const auto p = sched.placement(ref);
  PFAIR_REQUIRE(placed(p), "subtask " << ref << " not scheduled");
  return p;
}

}  // namespace

std::int64_t subtask_tardiness(const TaskSystem& sys,
                               const SlotSchedule& sched,
                               const SubtaskRef& ref) {
  return tardiness_slots(sys.subtask(ref), scheduled_placement(sched, ref));
}

std::int64_t subtask_tardiness(const TaskSystem& sys,
                               const CycleSchedule& sched,
                               const SubtaskRef& ref) {
  return tardiness_slots(sys.subtask(ref), scheduled_placement(sched, ref));
}

std::int64_t subtask_tardiness_ticks(const TaskSystem& sys,
                                     const DvqSchedule& sched,
                                     const SubtaskRef& ref) {
  return tardiness_ticks(sys.subtask(ref), scheduled_placement(sched, ref));
}

std::int64_t subtask_tardiness_ticks(const TaskSystem& sys,
                                     const DvqCycleSchedule& sched,
                                     const SubtaskRef& ref) {
  return tardiness_ticks(sys.subtask(ref), scheduled_placement(sched, ref));
}

TardinessSummary measure_tardiness(const TaskSystem& sys,
                                   const SlotSchedule& sched) {
  return measure(sys, sched);
}
TardinessSummary measure_tardiness(const TaskSystem& sys,
                                   const DvqSchedule& sched) {
  return measure(sys, sched);
}
TardinessSummary measure_tardiness(const TaskSystem& sys,
                                   const CycleSchedule& sched) {
  return measure_compressed(sys, sched);
}
TardinessSummary measure_tardiness(const TaskSystem& sys,
                                   const DvqCycleSchedule& sched) {
  return measure_compressed(sys, sched);
}

std::vector<std::int64_t> tardiness_values_ticks(const TaskSystem& sys,
                                                 const SlotSchedule& sched) {
  return values(sys, sched);
}
std::vector<std::int64_t> tardiness_values_ticks(const TaskSystem& sys,
                                                 const DvqSchedule& sched) {
  return values(sys, sched);
}
std::vector<std::int64_t> tardiness_values_ticks(const TaskSystem& sys,
                                                 const CycleSchedule& sched) {
  return values(sys, sched);
}
std::vector<std::int64_t> tardiness_values_ticks(
    const TaskSystem& sys, const DvqCycleSchedule& sched) {
  return values(sys, sched);
}

void record_tardiness_metrics(const TaskSystem& sys,
                              const SlotSchedule& sched,
                              MetricsRegistry& reg) {
  record_metrics(sys, sched, reg);
}
void record_tardiness_metrics(const TaskSystem& sys,
                              const DvqSchedule& sched,
                              MetricsRegistry& reg) {
  record_metrics(sys, sched, reg);
}

}  // namespace pfair
