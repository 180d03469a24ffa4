// Slot-granularity schedules — the S : tau x N -> {0,1} of Eq. (1),
// stored as per-subtask placements (SFQ model: every allocation starts on a
// slot boundary and occupies one whole quantum).
//
// Storage is a single calloc-backed cell block over all subtasks, with
// zero meaning "unscheduled" (slot and proc are stored shifted by +1).
// Construction therefore costs O(tasks) — the kernel hands back lazily
// mapped zero pages — and only cells that are actually written ever
// fault memory in.  That is what keeps the cycle fast-forward path
// (sched/compressed_schedule.hpp) O(prefix + cycle + tail): a warped
// run writes a few hundred slots of a multi-million-subtask schedule
// and never touches the rest.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/assert.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

/// Where one subtask was placed: the slot it occupies and the processor it
/// ran on.  `slot == kUnscheduled` means the scheduler never placed it
/// (only possible if the run hit its horizon limit).
struct SlotPlacement {
  static constexpr std::int64_t kUnscheduled = -1;
  std::int64_t slot = kUnscheduled;
  int proc = -1;

  [[nodiscard]] bool scheduled() const { return slot != kUnscheduled; }
};

/// A complete SFQ-model schedule for a task system.
class SlotSchedule {
 public:
  /// An empty (all-unscheduled) schedule shaped like `sys`.  O(tasks):
  /// the cell block is zero pages until written.
  explicit SlotSchedule(const TaskSystem& sys);

  SlotSchedule(const SlotSchedule& o);
  SlotSchedule& operator=(const SlotSchedule& o);
  SlotSchedule(SlotSchedule&&) noexcept = default;
  SlotSchedule& operator=(SlotSchedule&&) noexcept = default;

  [[nodiscard]] SlotPlacement placement(const SubtaskRef& ref) const;
  void place(const SubtaskRef& ref, std::int64_t slot, int proc);

  /// True iff every materialized subtask received a slot.  O(1).
  [[nodiscard]] bool complete() const { return placed_ == total(); }

  /// Number of slots used: 1 + latest occupied slot (0 if empty).
  [[nodiscard]] std::int64_t horizon() const { return horizon_; }

  /// Completion time of a subtask in the SFQ model: slot + 1.
  /// Requires the subtask to be scheduled.
  [[nodiscard]] std::int64_t completion_slot(const SubtaskRef& ref) const;

  /// All subtasks placed in `slot`, ordered by processor.
  [[nodiscard]] std::vector<SubtaskRef> slot_contents(std::int64_t slot) const;

  [[nodiscard]] std::int64_t num_tasks() const {
    return static_cast<std::int64_t>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return offsets_[static_cast<std::size_t>(task) + 1] -
           offsets_[static_cast<std::size_t>(task)];
  }

  /// Visits the placements of seqs [first, last) of `task` in seq order,
  /// calling f(seq, placement) — the sequential counterpart of
  /// `placement()` for passes over a whole schedule: the range is
  /// checked once, not per read.
  template <class F>
  void walk_seqs(std::int64_t task, std::int64_t first, std::int64_t last,
                 F&& f) const {
    PFAIR_REQUIRE(task >= 0 && task < num_tasks() && 0 <= first &&
                      first <= last && last <= num_subtasks(task),
                  "bad walk of task " << task << " over seqs [" << first
                                      << ", " << last << ")");
    const Cell* c = cells_.get() + offsets_[static_cast<std::size_t>(task)];
    for (std::int64_t s = first; s < last; ++s) {
      f(static_cast<std::int32_t>(s),
        SlotPlacement{c[s].slot_p1 - 1, c[s].proc_p1 - 1});
    }
  }
  /// Visits every placement of `task` in seq order: f(seq, placement).
  template <class F>
  void walk_task(std::int64_t task, F&& f) const {
    walk_seqs(task, 0, num_subtasks(task), f);
  }

  /// Number of placements recorded so far.
  [[nodiscard]] std::int64_t placed_count() const { return placed_; }

  /// Reverts every placement (an O(total) memset over the cell block)
  /// so the schedule can be refilled in place — the reuse hook behind
  /// `schedule_sfq_into`, which keeps sweeps and throughput loops free
  /// of steady-state allocations.
  void clear_placements();

 private:
  // The simulator's hot path writes cells through a raw pointer —
  // the simulator's head cursor already guarantees place()'s
  // preconditions (valid ref, never placed twice), so the checked
  // accessor would only re-verify per placement what is invariant.
  friend class SfqSimulator;


  /// One subtask's placement, shifted so all-zero bytes == unscheduled.
  struct Cell {
    std::int64_t slot_p1 = 0;
    std::int32_t proc_p1 = 0;
  };

  [[nodiscard]] std::int64_t total() const { return offsets_.back(); }
  [[nodiscard]] const Cell& cell(const SubtaskRef& ref) const;

  std::vector<std::int64_t> offsets_;  // [task] -> first cell; sentinel end
  std::unique_ptr<Cell[], void (*)(Cell*)> cells_;
  std::int64_t horizon_ = 0;
  std::int64_t placed_ = 0;
};

}  // namespace pfair
