#include "sched/state_hash.hpp"

#include <algorithm>
#include <numeric>

#include "core/assert.hpp"
#include "sched/schedule.hpp"
#include "sched/simulator.hpp"

namespace pfair {

namespace {

// Hyperperiods beyond this are useless for fast-forward (no horizon we
// simulate reaches two of them) and risk overflow in slot arithmetic.
constexpr std::int64_t kPeriodBound = std::int64_t{1} << 40;

/// The splitmix64 finalizer, stateless (core/rng.hpp's splitmix64 is
/// the generator step).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

namespace detail {

TaskStateRecord position_record(const Task& task, std::int64_t head,
                                std::int64_t t) {
  TaskStateRecord rec;
  const Weight& w = task.weight();
  // Every placement advances the head, so head is the allocation count.
  rec.lag_num = w.e * t - head * w.p;
  if (head >= task.num_subtasks()) {
    rec.rem = TaskStateRecord::kFinished;
    return rec;
  }
  rec.rem = head % w.e;
  rec.anchor = task.subtask_at(head).release - t;
  return rec;
}

TaskStateRecord task_state_record(const Task& task, std::int64_t head,
                                  std::int64_t last_slot, std::int64_t t) {
  TaskStateRecord rec = position_record(task, head, t);
  if (rec.rem == TaskStateRecord::kFinished) return rec;
  // Availability exactly as the simulator computes it (constructor for
  // head 0, commit_placement afterwards), clamped at t: a head whose
  // bucket predates t is already in — or about to drain into — the
  // ready heap, and those are behaviorally identical at boundary t.
  const std::int64_t avail =
      head == 0 ? std::max<std::int64_t>(task.eligible_at(0), 0)
                : std::max<std::int64_t>(task.eligible_at(head), last_slot + 1);
  rec.avail_rel = std::max<std::int64_t>(avail - t, 0);
  return rec;
}

std::uint64_t hash_state(const StateFingerprint& fp) {
  std::uint64_t h = 0x51ab7cee1db316a5ull;
  for (const TaskStateRecord& r : fp.records) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.rem));
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.anchor));
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.avail_rel));
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.lag_num));
  }
  for (const std::int64_t p : fp.procs) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(p));
  }
  return h;
}

}  // namespace detail

bool fingerprintable(const TaskSystem& sys) {
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    if (task.kind() != TaskKind::kPeriodic) return false;
    if (task.phase() != 0) return false;
  }
  return sys.num_tasks() > 0;
}

std::int64_t fingerprint_period(const TaskSystem& sys) {
  if (!fingerprintable(sys)) return 0;
  std::int64_t l = 1;
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    const std::int64_t p = sys.task(k).weight().p;
    l = l / std::gcd(l, p);
    if (l > kPeriodBound / p) return 0;
    l *= p;
  }
  return l;
}

StateFingerprint sfq_state_fingerprint(const SfqSimulator& sim) {
  const TaskSystem& sys = sim.system();
  StateFingerprint fp;
  fp.at = sim.now();
  fp.records.reserve(static_cast<std::size_t>(sys.num_tasks()));
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    fp.records.push_back(detail::task_state_record(
        sys.task(k), sim.head_of(k), sim.last_slot_of(k), fp.at));
  }
  fp.hash = detail::hash_state(fp);
  return fp;
}

ScheduleStateScanner::ScheduleStateScanner(const TaskSystem& sys,
                                           const SlotSchedule& sched)
    : sys_(&sys),
      slots_(static_cast<std::size_t>(sys.num_tasks())),
      head_(static_cast<std::size_t>(sys.num_tasks()), 0) {
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    auto& slots = slots_[static_cast<std::size_t>(k)];
    const std::int64_t n = sched.num_subtasks(k);
    slots.reserve(static_cast<std::size_t>(n));
    std::int64_t prev = -1;
    bool truncated = false;
    for (std::int64_t s = 0; s < n; ++s) {
      const SlotPlacement& pl = sched.placement(
          SubtaskRef{static_cast<std::int32_t>(k), static_cast<std::int32_t>(s)});
      // A horizon-limited run leaves a contiguous unscheduled tail; that
      // is fine as long as no boundary beyond the covered range is
      // queried (the placements below any queried t are all present).
      // A scheduled subtask after an unscheduled one, or out-of-order
      // slots, make head reconstruction meaningless.
      if (!pl.scheduled()) {
        truncated = true;
        continue;
      }
      if (truncated || pl.slot <= prev) {
        ok_ = false;
        return;
      }
      prev = pl.slot;
      slots.push_back(pl.slot);
    }
  }
}

StateFingerprint ScheduleStateScanner::at(std::int64_t t) {
  PFAIR_REQUIRE(ok_, "fingerprint from a broken schedule");
  PFAIR_REQUIRE(t >= last_t_, "scanner boundaries must be nondecreasing");
  last_t_ = t;
  StateFingerprint fp;
  fp.at = t;
  fp.records.reserve(slots_.size());
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    const auto& slots = slots_[k];
    std::int64_t& head = head_[k];
    while (head < static_cast<std::int64_t>(slots.size()) &&
           slots[static_cast<std::size_t>(head)] < t) {
      ++head;
    }
    const std::int64_t last =
        head > 0 ? slots[static_cast<std::size_t>(head - 1)] : -1;
    fp.records.push_back(detail::task_state_record(
        sys_->task(static_cast<std::int64_t>(k)), head, last, t));
  }
  fp.hash = detail::hash_state(fp);
  return fp;
}

}  // namespace pfair
