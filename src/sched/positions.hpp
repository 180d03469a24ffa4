// Division-free per-task subtask cursors, shared by both simulators.
//
// A simulator advances each task's head one seq per placement and needs
// the head's packed priority key and eligibility slot each time.  Both
// are affine in the job index over a fixed position period e, so a
// cursor (rem, job) with head = job * e + rem reads them as
//   key  = pos[pos_off + rem].key_base  + job * pos[...].key_step
//   elig = pos[pos_off + rem].elig_base + job * elig_p
// with no division.  The position period is the smallest stride that
// makes *both* affine: the reduced window period normally, the raw
// weight numerator for early-release tasks (whose job boundaries follow
// the raw (e, p)), and the subtask count for materialized tasks, pinning
// job = 0.  A task owns min(e, count) consecutive records, so flyweight
// tasks with millions of subtasks cost a few records each.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/arena.hpp"
#include "sched/packed_key.hpp"
#include "tasks/task_system.hpp"
#include "tasks/window_table.hpp"

namespace pfair {

/// Immutable per-position constants (see the header note).
struct PosRec {
  std::uint64_t key_base;
  std::uint64_t key_step;
  std::int64_t elig_base;
};

/// Fills `pos` with every task's position records, in task order, and
/// calls per_task(k, count, pos_off, e, elig_p) once per task: the task
/// has `count` subtasks, its records start at `pos_off`, its position
/// period is `e` and `elig_p` is its eligibility shift per job (0 while
/// job stays 0; e = 1 for an empty task).  Keys are zero unless
/// keys.packable().
template <class F>
void build_positions(const TaskSystem& sys, const PackedKeys& keys,
                     ArenaVector<PosRec>& pos, F&& per_task) {
  const bool packed = keys.packable();
  const std::int64_t n = sys.num_tasks();
  // Size the table (one pass), then fill it (second pass).
  std::size_t positions = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Task& task = sys.task(k);
    const std::int64_t cnt = task.num_subtasks();
    if (cnt == 0) continue;
    std::int64_t period = cnt;
    if (const WindowTable* wt = task.window_table()) {
      period = task.early_release() ? task.weight().e : wt->e();
    }
    positions += static_cast<std::size_t>(std::min(period, cnt));
  }
  pos.resize(positions);

  positions = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Task& task = sys.task(k);
    const std::int64_t cnt = task.num_subtasks();
    const auto pos_off = static_cast<std::int32_t>(positions);
    if (cnt == 0) {
      per_task(k, cnt, pos_off, std::int32_t{1}, std::int64_t{0});
      continue;
    }
    // When the period is not smaller than the subtask count, job stays
    // 0 for every seq and the table is truncated to one record per
    // subtask.
    const WindowTable* wt = task.window_table();
    std::int64_t e_red = 0;
    std::int64_t e_pos = cnt;
    std::int64_t elig_p = 0;
    if (wt != nullptr) {
      e_red = wt->e();
      const std::int64_t period =
          task.early_release() ? task.weight().e : e_red;
      e_pos = std::min(period, cnt);
      if (e_pos < cnt) elig_p = (e_pos / e_red) * wt->p();
    }
    const std::size_t pk_off = packed ? keys.task_offset(k) : 0;
    const std::uint64_t* pk_step = packed ? keys.step_data() : nullptr;
    for (std::int64_t r = 0; r < e_pos; ++r) {
      PosRec& pr = pos[positions + static_cast<std::size_t>(r)];
      pr.elig_base = task.eligible_at(r);
      pr.key_base = 0;
      pr.key_step = 0;
      if (packed) {
        pr.key_base = keys.order_key(SubtaskRef{
            static_cast<std::int32_t>(k), static_cast<std::int32_t>(r)});
        if (e_pos < cnt && wt != nullptr) {
          // key(seq = j * e_pos + r) steps by (e_pos / e_red) times the
          // reduced-period step each job (e_pos is a multiple of e_red).
          pr.key_step =
              static_cast<std::uint64_t>(e_pos / e_red) *
              pk_step[pk_off + static_cast<std::size_t>(r % e_red)];
        }
      }
    }
    per_task(k, cnt, pos_off, static_cast<std::int32_t>(e_pos), elig_p);
    positions += static_cast<std::size_t>(e_pos);
  }
}

}  // namespace pfair
