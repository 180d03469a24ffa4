#include "tasks/task_system.hpp"

#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "core/time.hpp"

namespace pfair {

namespace {

// Slots past the default horizon that tick arithmetic may reach (a DVQ
// quantum completes up to a slot after it starts).
constexpr std::int64_t kHorizonSlack = 4;
constexpr std::int64_t kMaxHorizon =
    std::numeric_limits<std::int64_t>::max() / kTicksPerSlot - kHorizonSlack;

// The default horizon's formula; false if it overflows.  An optimal
// policy finishes every feasible system by its max deadline.
// Suboptimal policies (EPDF) and overutilized systems run longer; known
// EPDF tardiness bounds are a small number of quanta, so a linear
// allowance in the subtask count is a safe hard stop rather than a bound
// we expect to reach.
bool horizon_of(std::int64_t max_deadline, std::int64_t subtasks,
                std::int64_t& h) {
  return !__builtin_add_overflow(max_deadline, subtasks, &h) &&
         !__builtin_add_overflow(h, 16, &h);
}

}  // namespace

namespace detail {

std::int64_t horizon_overflow(const std::vector<Task>& tasks,
                              std::int64_t& max_deadline, std::string& why) {
  std::int64_t total = 0;
  std::size_t latest = 0;
  max_deadline = 0;
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const Task& t = tasks[k];
    if (__builtin_add_overflow(total, t.num_subtasks(), &total)) {
      why = "task '" + t.name() + "': the subtask count overflows";
      return static_cast<std::int64_t>(k);
    }
    const std::int64_t d = t.max_deadline();
    if (d > max_deadline) {
      max_deadline = d;
      latest = k;
    }
  }
  std::int64_t h = 0;
  if (horizon_of(max_deadline, total, h) && h <= kMaxHorizon) return -1;
  std::ostringstream os;
  os << "task '" << tasks[latest].name()
     << "': deadline " << max_deadline << " with " << total
     << " subtasks puts the default horizon past the " << kMaxHorizon
     << " slots that ticks can represent";
  why = os.str();
  return static_cast<std::int64_t>(latest);
}

}  // namespace detail

std::int64_t default_horizon(const TaskSystem& sys) {
  std::int64_t h = 0;
  // Cannot overflow: the constructor checked it.
  const bool fits = horizon_of(sys.max_deadline(), sys.total_subtasks(), h);
  PFAIR_ASSERT(fits);
  return h;
}

TaskSystem::TaskSystem(std::vector<Task> tasks, int processors)
    : tasks_(std::move(tasks)), processors_(processors) {
  PFAIR_REQUIRE(processors_ >= 1, "need at least one processor");
  PFAIR_REQUIRE(
      tasks_.size() <= static_cast<std::size_t>(INT32_MAX),
      "too many tasks");
  std::string why;
  PFAIR_REQUIRE(detail::horizon_overflow(tasks_, max_deadline_, why) < 0, why);
  subtask_offsets_.reserve(tasks_.size() + 1);
  subtask_offsets_.push_back(0);
  for (const Task& t : tasks_) {
    subtask_offsets_.push_back(subtask_offsets_.back() + t.num_subtasks());
  }
}

Rational TaskSystem::total_utilization() const {
  Rational sum;
  for (const Task& t : tasks_) sum += t.weight().value();
  return sum;
}

bool TaskSystem::feasible() const {
  return total_utilization() <= Rational(processors_);
}

TaskSystem TaskSystem::with_early_release() const {
  std::vector<Task> er;
  er.reserve(tasks_.size());
  for (const Task& t : tasks_) er.push_back(t.with_early_release());
  return TaskSystem(std::move(er), processors_);
}

std::size_t TaskSystem::subtask_memory_bytes() const {
  std::size_t bytes = 0;
  std::set<const WindowTable*> tables;
  for (const Task& t : tasks_) {
    bytes += t.subtask_memory_bytes();
    if (const WindowTable* w = t.window_table()) tables.insert(w);
  }
  for (const WindowTable* w : tables) bytes += w->memory_bytes();
  return bytes;
}

std::string TaskSystem::summary() const {
  std::ostringstream os;
  os << num_tasks() << " tasks, M=" << processors_
     << ", util=" << total_utilization().str() << " ("
     << total_utilization().to_double() << "), " << total_subtasks()
     << " subtasks, max deadline " << max_deadline();
  return os.str();
}

}  // namespace pfair
