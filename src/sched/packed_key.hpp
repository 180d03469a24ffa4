// Packed integer priority keys — constant-time priority comparison.
//
// EPDF, PD and PD2 order subtasks by a short lexicographic tuple of
// per-subtask integers that never change once the task system is built
// (pseudo-deadline; b-bit; group deadline; for PD a weight rank).  That
// makes the whole tuple packable into one 64-bit integer per subtask,
// field by field from the most significant bit down, such that
//
//   policy_key(a) <  policy_key(b)  <=>  PriorityOrder::compare(a,b) < 0
//   policy_key(a) == policy_key(b)  <=>  PriorityOrder::compare(a,b) == 0
//
// and the branchy multi-field comparison of `compare_impl` becomes one
// unsigned compare in the scheduler's hot loop.  `order_key` appends the
// task id as the final field, yielding the same strict total order as
// `PriorityOrder::higher` (the per-task seq is not needed: a task's
// pseudo-deadlines are strictly increasing, so two subtasks of one task
// never collide on the policy fields — asserted during construction).
//
// Field widths are sized per task system (bit_width of each field's
// range) and biased so every field is a small non-negative integer.
// Fields that a policy consults only conditionally are *canonicalized*:
// when b = 0, PD/PD2 compare neither group deadline nor weight, so both
// fields are stored as 0 — equal keys exactly where `compare` ties.
//
// For flyweight (strictly periodic) tasks the table is compressed to
// O(e) per task: within a job the per-position fields repeat, and each
// further job shifts the deadline field up and the group-deadline field
// down by exactly p, so key(seq) = base[seq % e] + (seq / e) * step[seq
// % e].  Both the memory and the construction cost become O(sum of e),
// independent of the horizon — this is what keeps simulator setup out
// of the cycle fast-forward path's O(prefix + cycle + tail) budget.
// Materialized (IS/GIS-perturbed) tasks keep the per-subtask table.
//
// Storage is structure-of-arrays: all bases in one flat array, all
// steps in another, one (offset, e) pair per task.  The simulators'
// position tables (sched/positions.hpp) read the flat spans directly;
// `order_key` stays the scalar accessor.  The pseudo-deadline is the
// most significant field and the task id the least, so `deadline_of`
// and `task_of` read them back from a key alone.  When an Arena is
// supplied the arrays live there, so repeated constructions are
// allocation-free in steady state.
//
// PF's tie-break walks the successor b-bit string lexicographically and
// is not a fixed-width tuple; it keeps `compare_pf_bits`.  `packable()`
// is false for PF (and in the astronomically-unlikely case the summed
// field widths exceed 64 bits); callers fall back to PriorityOrder.
#pragma once

#include <bit>
#include <cstdint>

#include "core/arena.hpp"
#include "sched/priority.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

/// Precomputed packed priority keys for every subtask of one task
/// system under one policy.  The system (and arena, if any) must
/// outlive the keys.
class PackedKeys {
 public:
  PackedKeys(const TaskSystem& sys, Policy policy, Arena* arena = nullptr);

  /// True iff keys were built (policy is EPDF/PD/PD2 and all fields fit
  /// in 64 bits).  When false the key accessors must not be called.
  [[nodiscard]] bool packable() const { return packable_; }
  [[nodiscard]] Policy policy() const { return policy_; }

  /// The policy fields alone: mirrors PriorityOrder::compare exactly
  /// (including genuine ties, which map to equal keys).
  [[nodiscard]] std::uint64_t policy_key(const SubtaskRef& ref) const {
    return order_key(ref) >> tie_bits_;
  }

  /// Policy fields plus the task-id tie-break: a strict total order
  /// identical to PriorityOrder::higher over co-ready subtasks (smaller
  /// key = higher priority).
  [[nodiscard]] std::uint64_t order_key(const SubtaskRef& ref) const {
    const auto k = static_cast<std::size_t>(ref.task);
    const std::size_t off = off_[k];
    const std::int32_t e = e_[k];
    if (e == 0) return base_[off + static_cast<std::size_t>(ref.seq)];
    const std::int32_t job = ref.seq / e;
    const auto pos = off + static_cast<std::size_t>(ref.seq % e);
    return base_[pos] + static_cast<std::uint64_t>(job) * step_[pos];
  }

  // -- Flat structure-of-arrays access (valid only while packable()) --

  /// Key compression period of task `k`: 0 means one entry per subtask
  /// (materialized task, step identically 0); otherwise `e` entries,
  /// one per in-period position, key(seq) = base[seq%e] + (seq/e) *
  /// step[seq%e].
  [[nodiscard]] std::int32_t task_e(std::int64_t k) const {
    return e_[static_cast<std::size_t>(k)];
  }
  /// Offset of task `k`'s entries in base_data()/step_data().
  [[nodiscard]] std::size_t task_offset(std::int64_t k) const {
    return off_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const std::uint64_t* base_data() const { return base_.data(); }
  [[nodiscard]] const std::uint64_t* step_data() const { return step_.data(); }

  /// The pseudo-deadline encoded in `key` (an order_key of this system),
  /// read back without touching the task: what the simulators' probed
  /// placement hooks use for tardiness.  The deadline is the key's most
  /// significant field, stored biased by the system's earliest one.
  [[nodiscard]] std::int64_t deadline_of(std::uint64_t key) const {
    return static_cast<std::int64_t>(key >> deadline_shift_) + min_deadline_;
  }
  /// The task id encoded in `key` (an order_key of this system): its
  /// least significant field, how the keys-only ready heap names the
  /// task of each entry.
  [[nodiscard]] std::int32_t task_of(std::uint64_t key) const {
    return static_cast<std::int32_t>(key &
                                     ((std::uint64_t{1} << tie_bits_) - 1));
  }
  /// The rule PriorityOrder::compare decides two subtasks by, read off
  /// their order keys: the most significant field in which they differ
  /// (TieRule::kTie when only the task id does).
  [[nodiscard]] TieRule deciding_rule(std::uint64_t a, std::uint64_t b) const {
    const int top = 63 - std::countl_zero(a ^ b);
    for (int f = 0; f < 4; ++f) {
      if (top >= rule_shift_[f]) return static_cast<TieRule>(f);
    }
    return TieRule::kTie;
  }

 private:
  const TaskSystem* sys_;
  Policy policy_;
  // [task] -> (offset, e); entries at base_[off..off+n): n = e entries
  // for flyweight tasks (capped at the subtask count), one per subtask
  // for materialized ones.
  ArenaVector<std::uint32_t> off_;
  ArenaVector<std::int32_t> e_;
  ArenaVector<std::uint64_t> base_;
  ArenaVector<std::uint64_t> step_;
  int tie_bits_ = 0;
  int deadline_shift_ = 0;
  // Lowest bit of each rule's field, indexed by TieRule.
  int rule_shift_[4] = {};
  std::int64_t min_deadline_ = 0;  // bias of the deadline field
  bool packable_ = false;
};

}  // namespace pfair
