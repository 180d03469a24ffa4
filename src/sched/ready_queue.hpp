// The scheduler's incremental ready set: a priority queue of task ids,
// each standing for its task's head subtask, ordered by the strict total
// priority order, so one decision pops only the subtasks it schedules
// instead of re-scanning and re-sorting every task (O(changes x log n)
// per decision, not O(n)).
//
// Two comparison modes, chosen once per run and hidden behind one
// surface (push / pop_task / peek_task):
//   * packed  — one unsigned compare on precomputed 64-bit keys
//               (EPDF/PD/PD2, see sched/packed_key.hpp);
//   * fallback — PriorityOrder::higher (PF's lexicographic bit-string
//               tie-break, or the fit-overflow corner case).
// Both realize the identical strict total order, so pop order — and
// therefore the schedule — is bit-identical across modes.
//
// The packed mode is an 8-ary heap over one flat array of keys, and
// nothing else: a key's low field is its task id (PackedKeys::task_of),
// and the seq is the task's head, which the caller holds.  The physical
// layout is cache-aligned: the root lives at index 7 and the children of
// node i occupy [8i-48, 8i-41], so every child group starts at a
// multiple of 8 — with the array 64-byte aligned (ArenaVector<.., 64>),
// one simd::argmin8 per level reads exactly one cache line.  Indices
// 0..6 are never used, and the array keeps 8 UINT64_MAX padding slots
// past the live end so lane loads never read garbage.  Memory is
// O(ready entries): nothing is indexed by deadline or slot, so a 2^40
// pseudo-deadline costs what a small one does.
//
// Pop order is the sorted key order in every variant (strict total
// order, keys pairwise distinct by construction), so schedules stay
// bit-identical across heap arity and SIMD backend — the A/B suite
// asserts this.
//
// Storage comes from an Arena when one is supplied (zero steady-state
// allocations across repeated schedule calls); otherwise the heap.
//
// A task is queued at most once, and entries are never erased in place.
// A task's head subtask enters when it becomes available and leaves only
// by being popped and placed, so every entry names its task's next
// unscheduled subtask — the simulators have no second decision body
// that could schedule behind the queue's back (clear() is how warp
// starts over).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "core/simd.hpp"
#include "obs/probe.hpp"
#include "sched/packed_key.hpp"
#include "sched/positions.hpp"
#include "sched/priority.hpp"

namespace pfair {

class ReadyQueue {
 public:
  /// Both referents must outlive the queue.  Packed mode is used
  /// whenever `keys.packable()`.
  ReadyQueue(const PriorityOrder& order, const PackedKeys& keys,
             Arena* arena = nullptr)
      : keys_(arena), order_(&order), pkeys_(&keys), packed_(keys.packable()) {
    if (packed_) reset_packed();
  }

  void reserve(std::size_t n) {
    if (packed_) {
      keys_.reserve(n + kBase + kPad);
    } else {
      fb_.reserve(n);
    }
  }
  [[nodiscard]] bool empty() const { return packed_ ? n_ == 0 : fb_.empty(); }
  [[nodiscard]] std::size_t size() const { return packed_ ? n_ : fb_.size(); }
  /// Drops every entry (cycle fast-forward rebuilds the ready set from
  /// scratch after a warp — stale refs would otherwise linger forever).
  void clear() {
    if (packed_) {
      reset_packed();
    } else {
      fb_.clear();
    }
  }

  /// Queues task `task`, whose head cursor is `head`: by the head's key
  /// (packed mode), or as the ref {task, head.head} (fallback).  The task
  /// must not be queued already.
  void push(std::int32_t task, const HeadCursor& head) {
    if (!packed_) {
      fb_.push_back(SubtaskRef{task, head.head});
      std::push_heap(fb_.begin(), fb_.end(), Lower{this});
      return;
    }
    const std::size_t ext = n_ + 1 + kBase + kPad;
    if (ext > keys_.capacity()) {
      keys_.reserve(std::max<std::size_t>(2 * ext, 64));
    }
    keys_.resize(ext);
    keys_.data()[ext - 1] = ~std::uint64_t{0};  // keep the pad window full
    ++n_;
    sift_up(n_ + kBase - 1, head.next_key);
  }

  /// Removes the highest-priority entry and returns its task, whose head
  /// is the subtask to place.  Precondition: !empty().
  std::int32_t pop_task() {
    if (!packed_) {
      std::pop_heap(fb_.begin(), fb_.end(), Lower{this});
      const std::int32_t task = fb_.back().task;
      fb_.pop_back();
      return task;
    }
    std::uint64_t* k = keys_.data();
    const std::uint64_t top = k[kBase];
    const std::size_t last = n_ + kBase - 1;
    const std::uint64_t lk = k[last];
    --n_;
    keys_.resize(n_ + kBase + kPad);
    k[last] = ~std::uint64_t{0};  // start of the shifted pad window
    if (n_ != 0) sift_down(lk);
    return pkeys_->task_of(top);
  }

  /// The task owning the current best entry; !empty().  Lets the pop
  /// loop prefetch that task's hot record before popping.
  [[nodiscard]] std::int32_t peek_task() const {
    return packed_ ? pkeys_->task_of(keys_.data()[kBase]) : fb_.front().task;
  }

  /// Reports a decision's cut (obs/trace.hpp) after its pops, if an
  /// entry is left: the last of `placed` against the best entry, whose
  /// task's head cursor is in `hot`.  Packed mode reads the rule off the
  /// two keys (PackedKeys::deciding_rule), the fallback asks PriorityOrder.
  template <class Placed, class Hot>
  void explain_cut(SchedProbe& probe, Time at, const Placed& placed,
                   const Hot* hot) const {
    if (placed.empty() || empty()) return;
    const SubtaskRef& winner = placed.back();
    const std::int32_t k = peek_task();
    const SubtaskRef top{k, hot[static_cast<std::size_t>(k)].head};
    TieRule rule = TieRule::kTie;
    if (packed_) {
      rule = pkeys_->deciding_rule(pkeys_->order_key(winner),
                                   keys_.data()[kBase]);
    } else {
      (void)order_->compare(winner, top, &rule);
    }
    probe.cut(at, winner, top, rule);
  }

 private:
  // Physical heap layout: root at kBase, children of node i at
  // [8i - 48, 8i - 41], parent of node j at j/8 + 6; indices 0..kBase-1
  // unused.  kPad UINT64_MAX sentinels follow the last live slot.
  static constexpr std::size_t kBase = 7;
  static constexpr std::size_t kPad = 8;

  /// Empties the heap and re-establishes the pad window [kBase,
  /// kBase+kPad); the unused low slots are never read.
  void reset_packed() {
    n_ = 0;
    keys_.resize(kBase + kPad);
    std::uint64_t* k = keys_.data();
    for (std::size_t i = kBase; i < kBase + kPad; ++i) k[i] = ~std::uint64_t{0};
  }

  void sift_up(std::size_t i, std::uint64_t key) {
    std::uint64_t* k = keys_.data();
    while (i > kBase) {
      const std::size_t parent = i / 8 + 6;
      if (k[parent] <= key) break;
      k[i] = k[parent];
      i = parent;
    }
    k[i] = key;
  }

  void sift_down(std::uint64_t key) {
    std::uint64_t* k = keys_.data();
    const std::size_t live_end = n_ + kBase - 1;
    std::size_t i = kBase;
    while (true) {
      const std::size_t c = 8 * i - 48;
      if (c > live_end) break;
      const std::size_t j = c + simd::argmin8(k + c);
      if (k[j] >= key) break;  // padding is ~0, never taken
      k[i] = k[j];
      i = j;
    }
    k[i] = key;
  }

  struct Lower {
    const ReadyQueue* q;
    bool operator()(const SubtaskRef& a, const SubtaskRef& b) const {
      return q->order_->higher(b, a);
    }
  };

  // Packed mode: the 8-ary heap of keys (64-byte aligned so each child
  // group is one cache line).
  ArenaVector<std::uint64_t, 64> keys_;
  std::size_t n_ = 0;  // live heap entries
  // Fallback mode (PF / fit overflow): comparator binary heap.
  std::vector<SubtaskRef> fb_;
  const PriorityOrder* order_;
  const PackedKeys* pkeys_;
  bool packed_;
};

}  // namespace pfair
