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
//
// HeadCursor is that cursor, the 48 bytes both simulators' 64-byte hot
// records start with: advance() is the per-placement step, eligible()
// the head's eligibility slot, and seek() — the one division — jumps
// it after a warp.
//
// StoreBudget is the one way a simulator stores its run: before it
// simulates up to slot t it grows its schedule's store to every seq
// eligible before t (the slot budget at least doubling, so a run copies
// O(simulated) cells in all), a warp seeks the heads and leaves the
// skipped seqs as the store's gap, and each relayout rebases every
// cursor's cells.  An unprobed run grows once, to its limit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "core/assert.hpp"
#include "obs/prof.hpp"
#include "sched/cell_store.hpp"
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

/// One task's division-free cursor over its position records (see the
/// header note); `pos` arguments are the whole table.
struct HeadCursor {
  std::uint64_t next_key;   // order key of subtask `head` (packed mode)
  std::int64_t elig_p;      // eligibility shift per job (0: job fixed 0)
  std::int64_t cell_base;   // base of the head's stored run (cell_base + head)
  std::int32_t head;        // next unscheduled seq
  std::int32_t count;       // total subtasks
  std::int32_t rem;         // head % e
  std::int32_t job;         // head / e
  std::int32_t e;           // position period
  std::int32_t pos_off;     // first PosRec of this task

  /// True once every subtask has been placed.
  [[nodiscard]] bool done() const { return head >= count; }

  /// The eligibility slot of subtask `head`; requires !done().
  [[nodiscard]] std::int64_t eligible(const PosRec* pos) const {
    return at(pos).elig_base + static_cast<std::int64_t>(job) * elig_p;
  }

  /// Moves past the head just placed; false when none is left.
  bool advance(const PosRec* pos) {
    if (++head >= count) return false;
    if (++rem == e) {
      rem = 0;
      ++job;
    }
    set_key(pos);
    return true;
  }

  /// The number of seqs eligible before slot `t` — every seq a
  /// simulator can have placed by then.  Eligibility is nondecreasing in
  /// seq (Eq. (6)), so this is one division and a binary search over one
  /// position period.
  [[nodiscard]] std::int64_t eligible_before(std::int64_t t,
                                             const PosRec* pos) const {
    if (count == 0) return 0;
    const PosRec* first = pos + pos_off;
    // Seqs of job j eligible before t.
    const auto in_job = [&](std::int64_t j) {
      return std::partition_point(first, first + e,
                                  [&](const PosRec& r) {
                                    return r.elig_base + j * elig_p < t;
                                  }) -
             first;
    };
    if (elig_p == 0) return in_job(0);  // e == count: job stays 0
    // Job j's first seq is eligible at b0 + j * elig_p, and no seq of a
    // later job earlier, so every job before `last` (the last job
    // starting before t) is eligible whole.
    const std::int64_t b0 = first->elig_base;
    std::int64_t span = 0;
    if (t <= b0) return 0;
    if (__builtin_sub_overflow(t, b0, &span)) return count;
    const std::int64_t last = (span - 1) / elig_p;
    if (last >= (count + e - 1) / e) return count;
    return std::min<std::int64_t>(count, last * e + in_job(last));
  }

  /// Jumps the head to seq `to` (<= count).
  void seek(std::int32_t to, const PosRec* pos) {
    head = to;
    if (done()) return;
    job = head / e;
    rem = head % e;
    set_key(pos);
  }

 private:
  [[nodiscard]] const PosRec& at(const PosRec* pos) const {
    return pos[static_cast<std::size_t>(pos_off) +
               static_cast<std::size_t>(rem)];
  }
  void set_key(const PosRec* pos) {
    const PosRec& pr = at(pos);
    next_key = pr.key_base + static_cast<std::uint64_t>(job) * pr.key_step;
  }
};
static_assert(sizeof(HeadCursor) == 48);

/// A simulator's hold on the store of its schedule `Sched` (a
/// SlotSchedule or DvqSchedule; both befriend this type), and the
/// routines that move it (see the header note): every seq eligible
/// before slot `until` is stored, or was skipped by a warp.  cells() is
/// the one way to the cell block: a task's head cell is
/// cells()[cell_base + head] in its cursor (a HeadCursor, `Hot`).
template <class Sched>
class StoreBudget {
 public:
  using Cell = typename Sched::Cell;

  /// Holds `sched`, which must outlive it.  The first grow() of an
  /// empty store bases the cursors; rebase() one that holds cells.
  /// `last_deadline` is its task system's latest deadline.
  StoreBudget(Sched& sched, std::int64_t last_deadline)
      : sched_(&sched), last_deadline_(last_deadline) {}

  [[nodiscard]] Cell* cells() const { return cells_; }

  /// The budget to grow to for a run up to slot `t` > until: t, or more
  /// if that would not double the simulated span.
  [[nodiscard]] std::int64_t grown(std::int64_t t) const {
    const std::int64_t span = until_ - skipped_;
    return t - until_ > span ? t : until_ + span;
  }

  /// Makes the store hold every seq eligible before slot `t`.  O(1) when
  /// t is within the budget or the store holds every seq.
  template <class Hot>
  void grow(std::int64_t t, ArenaVector<Hot>& hot, const PosRec* pos) {
    if (t <= until_) return;
    until_ = grown(t);
    if (sched_->store_.all()) return;
    PFAIR_PROF_SPAN(kConstruction);
    if (skipped_ == 0 && until_ >= last_deadline_) {
      // Every seq is eligible before its deadline, so this stores them
      // all; no search per task.
      sched_->store_all();
      rebase(hot);
      return;
    }
    relay(hot, [&](std::size_t k, StoredSeqs s) {
      s.end = std::max(s.end, hot[k].eligible_before(until_, pos));
      return s;
    });
  }

  /// Moves every head cycles * cycle_allocs[k] seqs on, then calls
  /// moved(h, seqs moved) per task, for a warp over `shift` slots that
  /// resumes at slot `resume`.  The skipped seqs leave the store as its
  /// gap; it keeps every seq eligible before `resume`.  Returns the seqs
  /// skipped in all.
  template <class Hot, class Moved>
  std::int64_t warp(std::int64_t cycles,
                    const std::vector<std::int64_t>& cycle_allocs,
                    std::int64_t shift, std::int64_t resume,
                    ArenaVector<Hot>& hot, const PosRec* pos, Moved&& moved) {
    std::int64_t skipped_seqs = 0;
    for (std::size_t k = 0; k < hot.size(); ++k) {
      Hot& h = hot[k];
      const std::int64_t adv = cycles * cycle_allocs[k];
      PFAIR_REQUIRE(h.head + adv <= h.count, "warp overruns task " << k);
      h.seek(static_cast<std::int32_t>(h.head + adv), pos);
      skipped_seqs += adv;
      moved(h, adv);
    }
    until_ = resume;
    skipped_ += shift;
    relay(hot, [&](std::size_t k, const StoredSeqs&) {
      const Hot& h = hot[k];
      return StoredSeqs{h.head - cycles * cycle_allocs[k], h.head,
                        std::max<std::int64_t>(
                            h.head, h.eligible_before(resume, pos))};
    });
    return skipped_seqs;
  }

  /// Points cells() and every cursor's cell_base at the store's layout.
  template <class Hot>
  void rebase(ArenaVector<Hot>& hot) {
    cells_ = sched_->store_.data();
    for (std::size_t k = 0; k < hot.size(); ++k) {
      hot[k].cell_base =
          sched_->store_.base(static_cast<std::int64_t>(k), hot[k].head);
    }
  }

 private:
  /// Relays the store to `layout` and rebases.
  template <class Hot, class Layout>
  void relay(ArenaVector<Hot>& hot, Layout&& layout) {
    if (sched_->relayout(layout)) rebase(hot);
  }

  Sched* sched_;
  std::int64_t last_deadline_;
  Cell* cells_ = nullptr;
  std::int64_t until_ = 0;
  std::int64_t skipped_ = 0;  // slots warped over
};

/// Fills `pos` with every task's position records, in task order, and
/// calls per_task(k, cursor) once per task with the task's cursor at
/// head 0.  Keys are zero unless keys.packable().
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
    HeadCursor cur{};
    cur.count = static_cast<std::int32_t>(cnt);
    cur.e = 1;
    cur.pos_off = static_cast<std::int32_t>(positions);
    if (cnt == 0) {
      per_task(k, cur);
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
    cur.e = static_cast<std::int32_t>(e_pos);
    cur.elig_p = elig_p;
    cur.next_key = pos[positions].key_base;  // head 0: job 0, rem 0
    per_task(k, cur);
    positions += static_cast<std::size_t>(e_pos);
  }
}

}  // namespace pfair
