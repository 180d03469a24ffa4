// Continuous-time schedules — the overloaded S : {subtasks} -> Q of Sec. 3.
//
// Under the DVQ model a schedule is no longer a slot/subtask incidence
// function: each subtask has a (possibly non-integral) commencement time
// S(T_i) and an actual execution cost c(T_i) <= 1.  Both are exact Times.
//
// Storage mirrors SlotSchedule (sched/schedule.hpp): one calloc-backed
// block of 16-byte cells indexed by TaskSystem::flat_index, all-zero
// meaning "unplaced", so construction is O(tasks) and only written cells
// fault memory in.  Every place() also appends the cell's flat index to
// an order log (8 bytes), so a cell plus its log entry take 24 bytes.
// The simulator (which also runs the staggered model) and the reference
// scheduler place in nondecreasing start order, which lets the offline checks
// (analysis/validity.cpp, analysis/recount_dvq.cpp) read each
// processor's time order off the log instead of sorting for it.
//
// Oracle rule: the log supplies order only.  A check that uses it reads
// every start, cost and processor from the cell table, verifies that
// the log names every placed cell exactly once and that it is in the
// order the check needs (each processor's allocations in start order
// for validity; every start for the recount), and otherwise falls back
// to sorting — a hand-built schedule, or a materialized splice (whose
// synthesized placements are appended after the stored tail), gets the
// sort.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/time.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

/// Placement of one subtask on the continuous time line.
struct DvqPlacement {
  Time start;        ///< S(T_i)
  Time cost;         ///< c(T_i), in (0, 1]
  int proc = -1;
  bool placed = false;

  [[nodiscard]] Time completion() const { return start + cost; }
};

/// A complete DVQ (or staggered) schedule.
class DvqSchedule {
 public:
  /// An empty (all-unplaced) schedule shaped like `sys`.  O(tasks): the
  /// cell block is zero pages until written.
  explicit DvqSchedule(const TaskSystem& sys);

  DvqSchedule(const DvqSchedule& o);
  DvqSchedule& operator=(const DvqSchedule& o);
  DvqSchedule(DvqSchedule&&) noexcept = default;
  DvqSchedule& operator=(DvqSchedule&&) noexcept = default;

  [[nodiscard]] DvqPlacement placement(const SubtaskRef& ref) const;
  void place(const SubtaskRef& ref, Time start, Time cost, int proc);

  /// Visits the placements of seqs [first, last) of `task` in seq order,
  /// calling f(seq, placement) — the sequential counterpart of
  /// `placement()`; the range is checked once, not per read.
  template <class F>
  void walk_seqs(std::int64_t task, std::int64_t first, std::int64_t last,
                 F&& f) const {
    PFAIR_REQUIRE(task >= 0 && task < num_tasks() && 0 <= first &&
                      first <= last && last <= num_subtasks(task),
                  "bad walk of task " << task << " over seqs [" << first
                                      << ", " << last << ")");
    const Cell* c = cells_.get() + offsets_[static_cast<std::size_t>(task)];
    for (std::int64_t s = first; s < last; ++s) {
      f(static_cast<std::int32_t>(s), c[s].value());
    }
  }
  /// Visits every placement of `task` in seq order: f(seq, placement).
  template <class F>
  void walk_task(std::int64_t task, F&& f) const {
    walk_seqs(task, 0, num_subtasks(task), f);
  }

  /// True iff every subtask has been placed.  O(1).
  [[nodiscard]] bool complete() const { return placed_ == total_cells(); }

  /// Latest completion time (Time() if nothing placed).
  [[nodiscard]] Time makespan() const { return makespan_; }

  /// Total busy ticks per processor (for idle accounting).
  [[nodiscard]] const std::vector<std::int64_t>& busy_ticks() const {
    return busy_ticks_;
  }

  [[nodiscard]] std::int64_t num_tasks() const {
    return static_cast<std::int64_t>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return offsets_[static_cast<std::size_t>(task) + 1] -
           offsets_[static_cast<std::size_t>(task)];
  }

  /// Number of cells: the flat indices are [0, total_cells()).
  [[nodiscard]] std::int64_t total_cells() const { return offsets_.back(); }
  /// The placement in flat cell `i` (task-major, seq order; see
  /// TaskSystem::flat_index).  Requires 0 <= i < total_cells().
  [[nodiscard]] DvqPlacement flat_placement(std::int64_t i) const {
    PFAIR_ASSERT(i >= 0 && i < total_cells());
    return cells_[static_cast<std::size_t>(i)].value();
  }
  /// The flat index of every placement, in the order place() was called
  /// (see the header note: order only, never a placement's value).
  [[nodiscard]] std::span<const std::int64_t> order_log() const {
    return log_;
  }

 private:
  // The simulator's hot path writes cells and the log through raw
  // pointers: its head cursor already guarantees place()'s
  // preconditions, as in SlotSchedule.
  friend class DvqSimulator;
  // Tests corrupt the order log to pin that the checks verify it.
  friend struct DvqScheduleTestPeer;

  /// One subtask's placement, shifted so all-zero bytes == unplaced
  /// (a placed cell has cost >= 1 tick and proc_p1 >= 1).
  struct Cell {
    std::int64_t start_ticks;
    std::int32_t cost_ticks;
    std::int32_t proc_p1;

    [[nodiscard]] DvqPlacement value() const {
      return DvqPlacement{Time::ticks(start_ticks), Time::ticks(cost_ticks),
                          proc_p1 - 1, proc_p1 != 0};
    }
  };
  static_assert(sizeof(Cell) == 16);

  std::vector<std::int64_t> offsets_;  // [task] -> first cell; sentinel end
  std::unique_ptr<Cell[], void (*)(Cell*)> cells_;
  std::vector<std::int64_t> log_;      // flat index per place(), in order
  std::vector<std::int64_t> busy_ticks_;
  Time makespan_;
  std::int64_t placed_ = 0;
};

}  // namespace pfair
