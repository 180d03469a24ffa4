// Continuous-time schedules — the overloaded S : {subtasks} -> Q of Sec. 3.
//
// Under the DVQ model a schedule is no longer a slot/subtask incidence
// function: each subtask has a (possibly non-integral) commencement time
// S(T_i) and an actual execution cost c(T_i) <= 1.  Both are exact Times.
//
// Storage mirrors SlotSchedule (sched/schedule.hpp): a CellStore
// (sched/cell_store.hpp) of 16-byte cells, all-zero meaning "unplaced".
// A schedule built here stores every subtask, its cell index being
// TaskSystem::flat_index; the one a DvqSimulator owns grows as the run
// goes (StoreBudget, sched/positions.hpp), storing only the seqs it can
// have placed, and an unstored seq reads as unplaced.  Every place()
// also appends the cell's index to an order log (8 bytes), so a
// placement takes 24 bytes; a relayout of the store renumbers the log.
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
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/time.hpp"
#include "sched/cell_store.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

template <class Sched>
class StoreBudget;  // sched/positions.hpp

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
  /// An empty (all-unplaced) schedule shaped like `sys`, storing every
  /// subtask.  O(subtasks): the cell block is zeroed.
  explicit DvqSchedule(const TaskSystem& sys) : DvqSchedule(sys, true) {}

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
    store_.walk(task, first, last, f);
  }
  /// Visits every placement of `task` in seq order: f(seq, placement).
  template <class F>
  void walk_task(std::int64_t task, F&& f) const {
    walk_seqs(task, 0, num_subtasks(task), f);
  }

  /// True iff every subtask has been placed.  O(1).
  [[nodiscard]] bool complete() const { return placed_ == store_.subtasks(); }

  /// Latest completion time (Time() if nothing placed).
  [[nodiscard]] Time makespan() const { return makespan_; }

  /// Total busy ticks per processor (for idle accounting).
  [[nodiscard]] const std::vector<std::int64_t>& busy_ticks() const {
    return busy_ticks_;
  }

  [[nodiscard]] std::int64_t num_tasks() const { return store_.num_tasks(); }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return store_.num_subtasks(task);
  }

  /// Number of cells held: the cell indices are [0, stored_cells()).  A
  /// schedule storing every subtask holds total_subtasks() cells, its
  /// index of a subtask being TaskSystem::flat_index.
  [[nodiscard]] std::int64_t stored_cells() const { return store_.size(); }
  /// The placement in cell `i` (task-major, seq order).  Requires
  /// 0 <= i < stored_cells().
  [[nodiscard]] DvqPlacement flat_placement(std::int64_t i) const {
    PFAIR_ASSERT(i >= 0 && i < stored_cells());
    return store_.data()[i].value();
  }
  /// Stores every subtask (a no-op when it already does), so any
  /// subtask can be placed.  O(subtasks) when it relays the store.
  void store_all();
  /// The cell index of every placement, in the order place() was called
  /// (see the header note: order only, never a placement's value).
  [[nodiscard]] std::span<const std::int64_t> order_log() const {
    return log_;
  }

 private:
  // The simulator's hot path writes cells and the log directly: its
  // head cursor already guarantees place()'s preconditions, as in
  // SlotSchedule.  Its StoreBudget grows and relays the store.
  friend class DvqSimulator;
  template <class>
  friend class StoreBudget;
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

  /// Shaped like `sys`, storing every subtask (`all`) or none.
  DvqSchedule(const TaskSystem& sys, bool all);
  /// Relays the store to `layout` (CellStore::relayout) and renumbers
  /// the log; every logged cell must stay stored.  False if unchanged.
  template <class Layout>
  bool relayout(Layout&& layout) {
    return renumbered([&](const auto& moved) {
      return store_.relayout(layout, moved);
    });
  }
  /// Runs relay(moved), a relayout of the store that reports each moved
  /// run of cells to moved(from, to, n), and renumbers the log to match.
  template <class Relay>
  bool renumbered(Relay&& relay);

  CellStore<Cell> store_;
  std::vector<std::int64_t> log_;     // cell index per place(), in order
  std::vector<std::int64_t> busy_ticks_;
  Time makespan_;
  std::int64_t placed_ = 0;
};

template <class Relay>
bool DvqSchedule::renumbered(Relay&& relay) {
  constexpr std::int64_t kDropped = -1;
  std::vector<std::int64_t> renumber;  // old cell index -> new
  const auto moved = [&](std::int64_t from, std::int64_t to,
                         std::int64_t n) {
    if (log_.empty()) return;
    if (renumber.empty()) {
      renumber.assign(static_cast<std::size_t>(store_.size()), kDropped);
    }
    for (std::int64_t j = 0; j < n; ++j) {
      renumber[static_cast<std::size_t>(from + j)] = to + j;
    }
  };
  if (!relay(moved)) return false;
  for (std::int64_t& i : log_) {
    PFAIR_REQUIRE(!renumber.empty() &&
                      renumber[static_cast<std::size_t>(i)] != kDropped,
                  "relayout dropped a placement");
    i = renumber[static_cast<std::size_t>(i)];
  }
  return true;
}

}  // namespace pfair
