// A set of tasks plus the processor count — the unit of every experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rational.hpp"
#include "tasks/task.hpp"

namespace pfair {

/// Value-semantic container for a task set to be scheduled on `processors`
/// identical processors.
class TaskSystem {
 public:
  /// Rejects (ContractViolation naming the task) a system whose default
  /// horizon would leave the range of tick arithmetic (see
  /// detail::horizon_overflow).
  TaskSystem(std::vector<Task> tasks, int processors);

  [[nodiscard]] int processors() const { return processors_; }
  [[nodiscard]] std::int64_t num_tasks() const {
    return static_cast<std::int64_t>(tasks_.size());
  }
  [[nodiscard]] const Task& task(std::int64_t idx) const {
    PFAIR_REQUIRE(idx >= 0 && idx < num_tasks(),
                  "task index " << idx << " out of range");
    return tasks_[static_cast<std::size_t>(idx)];
  }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// The referenced subtask, by value: flyweight tasks synthesize it in
  /// O(1) (see tasks/window_table.hpp); binds to `const Subtask&` at call
  /// sites as before.
  [[nodiscard]] Subtask subtask(const SubtaskRef& ref) const {
    return task(ref.task).subtask_at(ref.seq);
  }

  /// Exact sum of task weights.
  [[nodiscard]] Rational total_utilization() const;

  /// Feasibility on `processors()` processors: sum(wt) <= M (Sec. 2).
  [[nodiscard]] bool feasible() const;

  /// Latest subtask deadline across all tasks.
  [[nodiscard]] std::int64_t max_deadline() const { return max_deadline_; }

  /// Total number of materialized subtasks (precomputed; O(1)).
  [[nodiscard]] std::int64_t total_subtasks() const {
    return subtask_offsets_.back();
  }

  /// Position of task `idx`'s first subtask in the flat, task-major
  /// enumeration of all subtasks — the indexing scheme shared by every
  /// per-subtask side table (packed priority keys, schedules, exports).
  /// `subtask_offset(num_tasks()) == total_subtasks()`.
  [[nodiscard]] std::int64_t subtask_offset(std::int64_t idx) const {
    PFAIR_REQUIRE(idx >= 0 && idx <= num_tasks(),
                  "task index " << idx << " out of range");
    return subtask_offsets_[static_cast<std::size_t>(idx)];
  }

  /// Flat index of one subtask (see subtask_offset).
  [[nodiscard]] std::int64_t flat_index(const SubtaskRef& ref) const {
    return subtask_offset(ref.task) + ref.seq;
  }

  /// Applies the early-release transform to every task.
  [[nodiscard]] TaskSystem with_early_release() const;

  /// Heap bytes held for subtask storage across the system: materialized
  /// vectors plus each *distinct* window table once (tables are shared
  /// flyweights).  For memory accounting in benches and soak guards.
  [[nodiscard]] std::size_t subtask_memory_bytes() const;

  /// One-line summary for experiment logs.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Task> tasks_;
  std::vector<std::int64_t> subtask_offsets_;  // size num_tasks() + 1
  std::int64_t max_deadline_ = 0;
  int processors_;
};

/// The automatic schedule horizon, used when no limit is given.
[[nodiscard]] std::int64_t default_horizon(const TaskSystem& sys);

namespace detail {
/// The index of the task blamed when `tasks`' default horizon, plus a
/// few slots of slack, does not fit Time::slots (or the subtask count
/// overflows), with the reason in `why`; -1 when it fits.  The task
/// with the latest deadline is blamed for the horizon.  Sets
/// `max_deadline` to the latest deadline (0 for no subtasks).
[[nodiscard]] std::int64_t horizon_overflow(const std::vector<Task>& tasks,
                                            std::int64_t& max_deadline,
                                            std::string& why);
}  // namespace detail

}  // namespace pfair
