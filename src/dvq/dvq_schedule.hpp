// Continuous-time schedules — the overloaded S : {subtasks} -> Q of Sec. 3.
//
// Under the DVQ model a schedule is no longer a slot/subtask incidence
// function: each subtask has a (possibly non-integral) commencement time
// S(T_i) and an actual execution cost c(T_i) <= 1.  Both are exact Times.
#pragma once

#include <cstdint>
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
  explicit DvqSchedule(const TaskSystem& sys);

  [[nodiscard]] const DvqPlacement& placement(const SubtaskRef& ref) const;
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
    const DvqPlacement* row =
        placements_[static_cast<std::size_t>(task)].data();
    for (std::int64_t s = first; s < last; ++s) {
      f(static_cast<std::int32_t>(s), row[s]);
    }
  }
  /// Visits every placement of `task` in seq order: f(seq, placement).
  template <class F>
  void walk_task(std::int64_t task, F&& f) const {
    walk_seqs(task, 0, num_subtasks(task), f);
  }

  [[nodiscard]] bool complete() const;

  /// Latest completion time (Time() if nothing placed).
  [[nodiscard]] Time makespan() const { return makespan_; }

  /// Total busy ticks per processor (for idle accounting).
  [[nodiscard]] const std::vector<std::int64_t>& busy_ticks() const {
    return busy_ticks_;
  }

  [[nodiscard]] std::int64_t num_tasks() const {
    return static_cast<std::int64_t>(placements_.size());
  }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return static_cast<std::int64_t>(
        placements_[static_cast<std::size_t>(task)].size());
  }

 private:
  std::vector<std::vector<DvqPlacement>> placements_;  // [task][seq]
  std::vector<std::int64_t> busy_ticks_;
  Time makespan_;
};

}  // namespace pfair
