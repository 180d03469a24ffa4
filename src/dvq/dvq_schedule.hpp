// Continuous-time schedules — the overloaded S : {subtasks} -> Q of Sec. 3.
//
// Under the DVQ model a schedule is no longer a slot/subtask incidence
// function: each subtask has a (possibly non-integral) commencement time
// S(T_i) and an actual execution cost c(T_i) <= 1.  Both are exact Times.
#pragma once

#include <cstdint>
#include <vector>

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
