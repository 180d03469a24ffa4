// Slot-granularity schedules — the S : tau x N -> {0,1} of Eq. (1),
// stored as per-subtask placements (SFQ model: every allocation starts on a
// slot boundary and occupies one whole quantum).
//
// Storage is a CellStore (sched/cell_store.hpp) of 16-byte cells, zero
// meaning "unscheduled" (slot and proc are stored shifted by +1).  A
// schedule built here stores every subtask: the block is allocated and
// zeroed up front, O(subtasks).  The schedule an SfqSimulator owns
// stores only the seqs it can have placed: the simulator grows the
// store ahead of the slots it simulates (StoreBudget,
// sched/positions.hpp), and a warp leaves the skipped seqs unstored.
// An unstored seq reads as unscheduled and every accessor keeps its
// full-shape meaning, so a run cut short stores no seq eligible past its
// limit, and a cycle fast-forwarded run (sched/compressed_schedule.hpp)
// stores O(tasks + prefix + cycle + tail) cells whatever its horizon.
#pragma once

#include <cstdint>
#include <vector>

#include "core/assert.hpp"
#include "sched/cell_store.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

template <class Sched>
class StoreBudget;  // sched/positions.hpp

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
  /// An empty (all-unscheduled) schedule shaped like `sys`, storing
  /// every subtask.  O(subtasks): the cell block is zeroed.
  explicit SlotSchedule(const TaskSystem& sys) : SlotSchedule(sys, true) {}

  [[nodiscard]] SlotPlacement placement(const SubtaskRef& ref) const;
  void place(const SubtaskRef& ref, std::int64_t slot, int proc);

  /// True iff every materialized subtask received a slot.  O(1).
  [[nodiscard]] bool complete() const { return placed_ == store_.subtasks(); }

  /// Number of slots used: 1 + latest occupied slot (0 if empty).
  [[nodiscard]] std::int64_t horizon() const { return horizon_; }

  /// Completion time of a subtask in the SFQ model: slot + 1.
  /// Requires the subtask to be scheduled.
  [[nodiscard]] std::int64_t completion_slot(const SubtaskRef& ref) const;

  /// All subtasks placed in `slot`, ordered by processor.
  [[nodiscard]] std::vector<SubtaskRef> slot_contents(std::int64_t slot) const;

  [[nodiscard]] std::int64_t num_tasks() const { return store_.num_tasks(); }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return store_.num_subtasks(task);
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
    store_.walk(task, first, last, f);
  }
  /// Visits every placement of `task` in seq order: f(seq, placement).
  template <class F>
  void walk_task(std::int64_t task, F&& f) const {
    walk_seqs(task, 0, num_subtasks(task), f);
  }

  /// Number of placements recorded so far.
  [[nodiscard]] std::int64_t placed_count() const { return placed_; }
  /// Number of cells held: every subtask's, unless a simulator owned
  /// the schedule (see the header note).
  [[nodiscard]] std::int64_t stored_cells() const { return store_.size(); }
  /// Stores every subtask (a no-op when it already does), so any
  /// subtask can be placed.  O(subtasks) when it relays the store.
  void store_all();

  /// Reverts every placement (a pass over the stored cells) so the
  /// schedule can be refilled in place — the reuse hook behind
  /// `schedule_sfq_into`, which keeps sweeps and throughput loops free
  /// of steady-state allocations.
  void clear_placements();

 private:
  // The simulator's hot path writes cells straight into the block —
  // the simulator's head cursor already guarantees place()'s
  // preconditions (valid ref, never placed twice) — and its StoreBudget
  // grows and relays the store (relayout) as it runs.
  friend class SfqSimulator;
  template <class>
  friend class StoreBudget;

  /// One subtask's placement, shifted so all-zero bytes == unscheduled.
  struct Cell {
    std::int64_t slot_p1;
    std::int32_t proc_p1;

    [[nodiscard]] SlotPlacement value() const {
      return SlotPlacement{slot_p1 - 1, proc_p1 - 1};
    }
  };
  static_assert(sizeof(Cell) == 16);

  /// Shaped like `sys`, storing every subtask (`all`) or none.
  SlotSchedule(const TaskSystem& sys, bool all) : store_(sys, all) {}
  /// Relays the store to `layout` (CellStore::relayout).  False if
  /// unchanged.
  template <class Layout>
  bool relayout(Layout&& layout) {
    return store_.relayout(layout,
                           [](std::int64_t, std::int64_t, std::int64_t) {});
  }

  CellStore<Cell> store_;
  std::int64_t horizon_ = 0;
  std::int64_t placed_ = 0;
};

}  // namespace pfair
