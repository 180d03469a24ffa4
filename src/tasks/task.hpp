// Recurrent tasks: periodic, sporadic, intra-sporadic (IS) and generalized
// intra-sporadic (GIS) — Sec. 2 of the paper.
//
// A Task owns its weight plus the finite sequence of subtasks to be
// scheduled in an experiment.  Periodic/sporadic tasks are *flyweights*:
// they store only (weight, phase, count, shared window table) and
// synthesize Subtask values on demand in O(1) — construction is
// O(distinct weights) across a task system instead of O(horizon * util)
// (see tasks/window_table.hpp).  IS/GIS tasks, whose per-subtask offsets
// and eligibility times are irregular, keep a materialized vector behind
// the same accessors.  Builders enforce the model constraints by
// construction and by validation:
//   * Eq. (5): offsets nondecreasing in the subtask index;
//   * Eq. (6): eligibility times e(T_i) <= r(T_i), nondecreasing;
//   * GIS release rule: r(T_k) - r(T_i) >= floor((k-1)/wt) - floor((i-1)/wt)
//     for consecutive materialized subtasks T_i, T_k (automatic given (5)).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/assert.hpp"
#include "tasks/subtask.hpp"
#include "tasks/weight.hpp"
#include "tasks/window_table.hpp"

namespace pfair {

/// Which model produced the task (informational; the scheduler treats all
/// kinds uniformly through the subtask sequence).
enum class TaskKind { kPeriodic, kSporadic, kIntraSporadic, kGeneralizedIS };

[[nodiscard]] const char* to_string(TaskKind k);

/// One recurrent task and its subtask sequence (flyweight or
/// materialized; see the header comment).
class Task {
 public:
  /// Specification of one subtask for the GIS builder.
  struct SubtaskSpec {
    std::int64_t index;          ///< Pfair index i (>= 1, strictly increasing)
    std::int64_t theta = 0;      ///< offset (Eq. (5): nondecreasing)
    std::int64_t eligible = -1;  ///< e(T_i); -1 means "use r(T_i)"
  };

  /// A synchronous periodic task: subtasks 1..n released as early as
  /// possible, where n covers releases in [0, horizon).  O(1) beyond the
  /// (cached) per-weight window table; `cache` defaults to the
  /// process-wide WindowTableCache.
  [[nodiscard]] static Task periodic(std::string name, Weight w,
                                     std::int64_t horizon,
                                     WindowTableCache* cache = nullptr);

  /// A periodic task whose first subtask is released at `phase` (all
  /// windows shifted right by `phase`); models asynchronous/sporadic
  /// arrival of the whole task.
  [[nodiscard]] static Task periodic_phased(std::string name, Weight w,
                                            std::int64_t phase,
                                            std::int64_t horizon,
                                            WindowTableCache* cache = nullptr);
  /// `periodic_phased` on a table the caller already holds for `w`'s
  /// reduced rate (as `WindowTableCache::get(w)` returns it).
  [[nodiscard]] static Task periodic_phased(
      std::string name, Weight w, std::int64_t phase, std::int64_t horizon,
      std::shared_ptr<const WindowTable> table);

  /// The pre-flyweight construction path: identical subtask sequence to
  /// `periodic_phased`, but eagerly materialized and re-validated.
  /// Retained as the equivalence oracle for tests and construction
  /// benchmarks — not for production use.
  [[nodiscard]] static Task periodic_phased_eager(std::string name, Weight w,
                                                  std::int64_t phase,
                                                  std::int64_t horizon);

  /// An IS task: subtasks 1..n with explicit per-subtask offsets
  /// (validated nondecreasing).  `offsets` may be shorter than the number
  /// of subtasks; the last offset persists.
  [[nodiscard]] static Task intra_sporadic(std::string name, Weight w,
                                           const std::vector<std::int64_t>& offsets,
                                           std::int64_t count);

  /// A GIS task from an explicit subtask list (indices may skip).
  [[nodiscard]] static Task gis(std::string name, Weight w,
                                const std::vector<SubtaskSpec>& specs);

  /// Early-release transform (Anderson & Srinivasan [1]): every subtask of
  /// a job becomes eligible at the job's release, i.e. e(T_i) = theta(T_i)
  /// + (j-1)p for T_i in job j (indices (j-1)e+1 .. je).  Returns a copy
  /// (for flyweight tasks, a flag flip — jobs are delimited by the *raw*
  /// (e, p) pair, so eligibility stays O(1) arithmetic).
  [[nodiscard]] Task with_early_release() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Weight& weight() const { return weight_; }
  [[nodiscard]] TaskKind kind() const { return kind_; }

  [[nodiscard]] std::int64_t num_subtasks() const {
    return table_ != nullptr
               ? count_
               : static_cast<std::int64_t>(subtasks_.size());
  }

  /// The subtask at position `seq` in the dense sequence.  O(1): a table
  /// lookup plus a period offset for flyweight tasks, a vector read for
  /// materialized ones.  Returns by value; the synthesized Subtask is a
  /// few words and binds to `const Subtask&` at call sites.
  [[nodiscard]] Subtask subtask_at(std::int64_t seq) const {
    PFAIR_REQUIRE(seq >= 0 && seq < num_subtasks(),
                  "subtask seq " << seq << " out of range for task " << name_);
    return table_ != nullptr ? synthesize(seq)
                             : subtasks_[static_cast<std::size_t>(seq)];
  }
  /// Alias of `subtask_at` (the historical accessor name).
  [[nodiscard]] Subtask subtask(std::int64_t seq) const {
    return subtask_at(seq);
  }

  /// e(T) of the subtask at `seq` without synthesizing the full Subtask —
  /// the only field the simulators' hot paths read.
  [[nodiscard]] std::int64_t eligible_at(std::int64_t seq) const;

  /// True iff subtasks are synthesized from a shared window table.
  [[nodiscard]] bool flyweight() const { return table_ != nullptr; }
  /// The shared window table (null for materialized tasks).
  [[nodiscard]] const WindowTable* window_table() const {
    return table_.get();
  }
  /// Offset of every subtask of a flyweight task (theta; 0 if
  /// materialized — those carry per-subtask offsets instead).
  [[nodiscard]] std::int64_t phase() const { return phase_; }
  /// True iff the early-release transform is applied (flyweight path).
  [[nodiscard]] bool early_release() const { return early_release_; }

  /// Heap bytes held for subtask storage: the materialized vector, or the
  /// task's share of nothing at all (flyweight tasks hold one shared_ptr;
  /// count shared tables separately via window_table()).
  [[nodiscard]] std::size_t subtask_memory_bytes() const {
    return subtasks_.capacity() * sizeof(Subtask);
  }

  /// Latest deadline over the subtask sequence (0 if none).
  [[nodiscard]] std::int64_t max_deadline() const;

 private:
  friend class SubtaskCursor;

  Task(std::string name, Weight w, TaskKind kind,
       std::vector<Subtask> subtasks);
  Task(std::string name, Weight w, TaskKind kind, std::int64_t phase,
       std::int64_t count, std::shared_ptr<const WindowTable> table,
       bool early_release);

  /// Synthesizes subtask `seq` from the window table (flyweight path).
  [[nodiscard]] Subtask synthesize(std::int64_t seq) const;

  /// Enforces Eqs. (5), (6) and the GIS release rule; throws on violation.
  /// Materialized path only — flyweight sequences satisfy all three by
  /// construction (releases follow Eq. (2), which is monotone).
  void validate() const;

  std::string name_;
  Weight weight_;
  TaskKind kind_;
  std::vector<Subtask> subtasks_;  // materialized path; empty if flyweight

  // Flyweight path (periodic/sporadic): subtask seq >= 0 has index
  // seq + 1, offset phase_, and window parameters table ⊕ period shift.
  std::shared_ptr<const WindowTable> table_;
  std::int64_t phase_ = 0;
  std::int64_t count_ = 0;
  bool early_release_ = false;
};

/// Reads a task's subtasks in seq order: the k-th `next()` returns
/// exactly `task.subtask_at(k)`, with no division or modulo per step.
/// A flyweight task advances a window-table index and its period shift,
/// plus, under early release, a counter inside the raw-(e, p) job; a
/// materialized task reads its vector.  The sequential counterpart of
/// `subtask_at` for the passes that walk a whole schedule (validity,
/// tardiness, recount, export).  A call past the last subtask (a
/// schedule shaped for another system) throws; the task must outlive
/// the cursor.
class SubtaskCursor {
 public:
  explicit SubtaskCursor(const Task& task)
      : left_(task.num_subtasks()),
        stored_(task.subtasks_.data()),
        table_(task.table_.get()),
        theta_(task.phase_),
        shift_(task.phase_),
        job_release_(task.phase_),
        job_len_(task.early_release_ ? task.weight_.e : 0),
        job_period_(task.weight_.p) {}

  [[nodiscard]] Subtask next() {
    PFAIR_REQUIRE(left_-- > 0, "subtask cursor ran past the end of its task");
    if (table_ == nullptr) return *stored_++;
    const WindowTable& t = *table_;
    Subtask s;
    s.index = ++index_;
    s.theta = theta_;
    s.release = shift_ + t.release_at(rem_);
    s.deadline = shift_ + t.deadline_at(rem_);
    s.bbit = t.bbit_at(rem_);
    s.group_deadline = t.heavy() ? shift_ + t.group_deadline_at(rem_) : 0;
    s.eligible = job_len_ > 0 ? job_release_ : s.release;
    if (++rem_ == t.e()) {
      rem_ = 0;
      shift_ += t.p();
    }
    if (job_len_ > 0 && ++job_pos_ == job_len_) {
      job_pos_ = 0;
      job_release_ += job_period_;
    }
    return s;
  }

  /// Jumps over the next `count` subtasks, leaving the cursor where
  /// `count` calls of next() would: one division per skip, not a walk
  /// (how the compressed-schedule passes step over skipped cycles).
  void skip(std::int64_t count) {
    PFAIR_REQUIRE(count >= 0 && count <= left_,
                  "subtask cursor skip of " << count << " past the end of "
                                            << left_ << " left");
    left_ -= count;
    if (table_ == nullptr) {
      stored_ += count;
      return;
    }
    index_ += count;
    const std::int64_t at = rem_ + count;
    shift_ += at / table_->e() * table_->p();
    rem_ = at % table_->e();
    if (job_len_ > 0) {
      const std::int64_t pos = job_pos_ + count;
      job_release_ += pos / job_len_ * job_period_;
      job_pos_ = pos % job_len_;
    }
  }

 private:
  std::int64_t left_;         // subtasks not yet returned
  const Subtask* stored_;     // materialized path: the next subtask
  const WindowTable* table_;  // flyweight path (null if materialized)
  std::int64_t theta_;
  std::int64_t index_ = 0;  // Pfair index of the last subtask returned
  std::int64_t rem_ = 0;    // table entry of the next subtask
  std::int64_t shift_;      // phase + (whole table periods) * reduced p
  // Early release: the eligibility of every subtask of a raw-(e, p) job
  // is that job's release; job_len_ == 0 when the transform is off.
  std::int64_t job_release_;
  std::int64_t job_pos_ = 0;
  std::int64_t job_len_;
  std::int64_t job_period_;
};

}  // namespace pfair
