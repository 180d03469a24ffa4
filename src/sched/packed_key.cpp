#include "sched/packed_key.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "obs/prof.hpp"
#include "tasks/window_table.hpp"

namespace pfair {

namespace {

// Bits needed to store values in [0, range]; 0 for a constant field
// (shifting by 0 keeps the key unchanged, so empty fields cost nothing).
int field_bits(std::uint64_t range) {
  return range == 0 ? 0 : static_cast<int>(std::bit_width(range));
}

}  // namespace

PackedKeys::PackedKeys(const TaskSystem& sys, Policy policy, Arena* arena)
    : sys_(&sys),
      policy_(policy),
      off_(arena),
      e_(arena),
      base_(arena),
      step_(arena) {
  PFAIR_PROF_SPAN(kKeyPrecompute);
  // PF's lexicographic successor-bit tie-break has no fixed-width
  // encoding; it keeps the PriorityOrder fallback.  The fault-injection
  // policy is deliberately left unpacked too — it is never hot.
  if (policy == Policy::kPf || policy == Policy::kBroken) return;

  const std::int64_t n = sys.num_tasks();
  const std::int64_t total = sys.total_subtasks();
  if (total == 0) {
    packable_ = true;
    return;
  }

  // Pass 1: field ranges.  Flyweight tasks are scanned through their
  // window table in O(min(count, e)): deadlines are strictly increasing,
  // so min/max come from the first/last subtask, and the b-gated group
  // deadline is maximal somewhere in the last period (D is nondecreasing
  // and b periodic).  Materialized tasks keep the per-subtask scan.
  std::int64_t min_d = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_d = std::numeric_limits<std::int64_t>::min();
  std::int64_t max_gd = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Task& task = sys.task(k);
    const std::int64_t cnt = task.num_subtasks();
    if (cnt == 0) continue;
    if (task.flyweight()) {
      min_d = std::min(min_d, task.subtask_at(0).deadline);
      max_d = std::max(max_d, task.subtask_at(cnt - 1).deadline);
      if (task.window_table()->heavy()) {
        const std::int64_t first = std::max<std::int64_t>(
            1, cnt - task.window_table()->e() + 1);
        for (std::int64_t i = first; i <= cnt; ++i) {
          if (task.window_table()->bbit(i)) {
            max_gd = std::max(
                max_gd, task.phase() + task.window_table()->group_deadline(i));
          }
        }
      }
    } else {
      for (std::int64_t s = 0; s < cnt; ++s) {
        const Subtask sub = task.subtask_at(s);
        min_d = std::min(min_d, sub.deadline);
        max_d = std::max(max_d, sub.deadline);
        if (sub.group_deadline < 0) return;  // outside the packable domain
        if (sub.bbit) max_gd = std::max(max_gd, sub.group_deadline);
      }
    }
  }

  // PD refines b-bit ties by weight (heavier first): a dense rank over
  // the distinct weights, heaviest = 0, packs that comparison too.
  ArenaVector<std::uint64_t> weight_rank(arena);
  std::uint64_t max_rank = 0;
  if (policy_ == Policy::kPd) {
    ArenaVector<std::int64_t> by_weight(arena);
    by_weight.resize(static_cast<std::size_t>(n));
    std::iota(by_weight.begin(), by_weight.end(), std::int64_t{0});
    std::sort(by_weight.begin(), by_weight.end(),
              [&sys](std::int64_t a, std::int64_t b) {
                return sys.task(a).weight().value() >
                       sys.task(b).weight().value();
              });
    weight_rank.resize(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < weight_rank.size(); ++i) weight_rank[i] = 0;
    for (std::size_t i = 1; i < by_weight.size(); ++i) {
      const bool same = sys.task(by_weight[i]).weight().value() ==
                        sys.task(by_weight[i - 1]).weight().value();
      weight_rank[static_cast<std::size_t>(by_weight[i])] =
          weight_rank[static_cast<std::size_t>(by_weight[i - 1])] +
          (same ? 0 : 1);
    }
    max_rank = *std::max_element(weight_rank.begin(), weight_rank.end());
  }

  const int bits_d =
      field_bits(static_cast<std::uint64_t>(max_d - min_d));
  const bool has_tiebreak_fields = policy_ != Policy::kEpdf;
  const int bits_b = has_tiebreak_fields ? 1 : 0;
  const int bits_gd =
      has_tiebreak_fields ? field_bits(static_cast<std::uint64_t>(max_gd))
                          : 0;
  const int bits_w = policy_ == Policy::kPd ? field_bits(max_rank) : 0;
  const int bits_t = field_bits(static_cast<std::uint64_t>(n - 1));
  if (bits_d + bits_b + bits_gd + bits_w + bits_t > 64) return;

  tie_bits_ = bits_t;
  // Field shifts inside the packed word (LSB side): the d field sits
  // above everything else, the gd field above the PD rank and task id.
  const int shift_gd = bits_w + bits_t;
  const int shift_d =
      (has_tiebreak_fields ? 1 + bits_gd : 0) + bits_w + bits_t;
  deadline_shift_ = shift_d;
  min_deadline_ = min_d;
  rule_shift_[static_cast<int>(TieRule::kDeadline)] = shift_d;
  rule_shift_[static_cast<int>(TieRule::kBBit)] = shift_gd + bits_gd;
  rule_shift_[static_cast<int>(TieRule::kGroupDeadline)] = shift_gd;
  rule_shift_[static_cast<int>(TieRule::kWeight)] = bits_t;

  // Size the flat arrays: flyweight tasks contribute min(e, count)
  // in-period positions, materialized ones a position per subtask.
  off_.resize(static_cast<std::size_t>(n));
  e_.resize(static_cast<std::size_t>(n));
  std::size_t positions = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Task& task = sys.task(k);
    const std::int64_t cnt = task.num_subtasks();
    off_[static_cast<std::size_t>(k)] = static_cast<std::uint32_t>(positions);
    if (cnt == 0) {
      e_[static_cast<std::size_t>(k)] = 0;
      continue;
    }
    if (const WindowTable* wt = task.window_table()) {
      // e is clamped to the subtask count: when e >= cnt every seq has
      // job 0 and rem == seq, so the clamp changes nothing — and the
      // stored value always fits 32 bits (cnt does, seq is int32).
      e_[static_cast<std::size_t>(k)] =
          static_cast<std::int32_t>(std::min(wt->e(), cnt));
      positions += static_cast<std::size_t>(std::min(wt->e(), cnt));
    } else {
      e_[static_cast<std::size_t>(k)] = 0;
      positions += static_cast<std::size_t>(cnt);
    }
  }
  base_.resize(positions);
  step_.resize(positions);

  bool distinct = true;
  for (std::int64_t k = 0; k < n; ++k) {
    const Task& task = sys.task(k);
    const std::int64_t cnt = task.num_subtasks();
    if (cnt == 0) continue;
    const std::size_t off = off_[static_cast<std::size_t>(k)];
    std::uint64_t* base = base_.data() + off;
    std::uint64_t* step = step_.data() + off;
    const auto pack = [&](std::int64_t deadline, bool bbit, std::int64_t gd) {
      std::uint64_t key = static_cast<std::uint64_t>(deadline - min_d);
      if (has_tiebreak_fields) {
        // b = 1 beats b = 0; rules after the b-bit are consulted only
        // between two b = 1 subtasks, so they canonicalize to 0 at
        // b = 0 (equal keys exactly where compare() ties).
        key = (key << 1) | (bbit ? 0u : 1u);
        key = (key << bits_gd) |
              (bbit ? static_cast<std::uint64_t>(max_gd - gd) : 0u);
        if (policy_ == Policy::kPd) {
          key = (key << bits_w)
                    | (bbit ? weight_rank[static_cast<std::size_t>(k)]
                            : 0u);
        }
      }
      return (key << bits_t) | static_cast<std::uint64_t>(k);
    };
    if (const WindowTable* wt = task.window_table()) {
      // Compressed form: one base key (job 0) and per-job step per
      // in-period position.  A further job adds p to the deadline and
      // (for a heavy task's b = 1 subtasks, whose stored field is
      // max_gd - gd) subtracts p from the group-deadline field.
      const std::int64_t e = wt->e();
      const bool heavy = wt->heavy();
      const std::int64_t nrem = std::min(e, cnt);
      for (std::int64_t rem = 0; rem < nrem; ++rem) {
        const bool bbit = wt->bbit_at(rem);
        base[rem] =
            pack(task.phase() + wt->deadline_at(rem), bbit,
                 heavy ? task.phase() + wt->group_deadline_at(rem) : 0);
        const std::uint64_t up = static_cast<std::uint64_t>(wt->p())
                                 << shift_d;
        const std::uint64_t down =
            (has_tiebreak_fields && heavy && bbit)
                ? static_cast<std::uint64_t>(wt->p()) << shift_gd
                : 0;
        step[rem] = up - down;
      }
      // Within one task pseudo-deadlines strictly increase, so the keys
      // must too; a violation would make two live heap entries
      // indistinguishable.  Every adjacent-key difference is affine in
      // the job index, so strict increase across the first e + 1 and
      // the last e + 1 subtasks (both extreme jobs of every adjacent
      // position pair) implies strict increase everywhere between.
      const auto key_at = [&](std::int64_t s) {
        const std::int64_t job = s / e;
        const auto rem = static_cast<std::size_t>(s % e);
        return base[rem] + static_cast<std::uint64_t>(job) * step[rem];
      };
      for (std::int64_t s = 1; s < std::min(cnt, e + 1); ++s) {
        if (key_at(s) <= key_at(s - 1)) distinct = false;
      }
      for (std::int64_t s = std::max<std::int64_t>(1, cnt - e - 1); s < cnt;
           ++s) {
        if (key_at(s) <= key_at(s - 1)) distinct = false;
      }
    } else {
      std::uint64_t prev = 0;
      for (std::int64_t s = 0; s < cnt; ++s) {
        const Subtask sub = task.subtask_at(s);
        const std::uint64_t key =
            pack(sub.deadline, sub.bbit, sub.group_deadline);
        if (s > 0 && key <= prev) distinct = false;
        prev = key;
        base[static_cast<std::size_t>(s)] = key;
        step[static_cast<std::size_t>(s)] = 0;
      }
    }
  }
  packable_ = distinct;
  if (!packable_) {
    base_.clear();
    step_.clear();
    off_.clear();
    e_.clear();
  }
}

}  // namespace pfair
