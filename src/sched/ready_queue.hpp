// The scheduler's incremental ready set: a priority queue of subtask
// references ordered by the strict total priority order, so one decision
// pops only the subtasks it schedules instead of re-scanning and
// re-sorting every task (O(changes x log n) per decision, not O(n)).
//
// Two comparison modes, chosen once per run:
//   * packed  — one unsigned compare on precomputed 64-bit keys
//               (EPDF/PD/PD2, see sched/packed_key.hpp);
//   * fallback — PriorityOrder::higher (PF's lexicographic bit-string
//               tie-break, or the fit-overflow corner case).
// Both realize the identical strict total order, so pop order — and
// therefore the schedule — is bit-identical across modes.
//
// The packed mode is an 8-ary heap over two parallel flat arrays (keys
// / payloads).  The physical layout is cache-aligned: the root lives at
// index 7 and the children of node i occupy [8i-48, 8i-41], so every
// child group starts at a multiple of 8 — with the arrays 64-byte
// aligned (ArenaVector<.., 64>), one simd::argmin8 per level reads
// exactly one cache line.  Indices 0..6 are never used, and the key
// array keeps 8 UINT64_MAX padding slots past the live end so lane
// loads never read garbage.  Memory is O(ready entries): nothing is
// indexed by deadline or slot, so a 2^40 pseudo-deadline costs what a
// small one does.
//
// Pop order is the sorted key order in every variant (strict total
// order, keys pairwise distinct by construction), so schedules stay
// bit-identical across heap arity and SIMD backend — the A/B suite
// asserts this.
//
// Storage comes from an Arena when one is supplied (zero steady-state
// allocations across repeated schedule calls); otherwise the heap.
//
// Entries are never erased in place.  A task's head subtask enters when
// it becomes available and leaves only by being popped and placed, so
// every entry names its task's next unscheduled subtask — the
// simulators have no second decision body that could schedule behind
// the queue's back (clear() is how warp starts over).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "core/simd.hpp"
#include "sched/packed_key.hpp"
#include "sched/priority.hpp"

namespace pfair {

class ReadyQueue {
 public:
  /// Both referents must outlive the queue.  Packed mode is used
  /// whenever `keys.packable()`.
  ReadyQueue(const PriorityOrder& order, const PackedKeys& keys,
             Arena* arena = nullptr)
      : keys_(arena),
        payload_(arena),
        order_(&order),
        pkeys_(&keys),
        packed_(keys.packable()) {
    if (packed_) reset_packed();
  }

  void reserve(std::size_t n) {
    if (packed_) {
      keys_.reserve(n + kBase + kPad);
      payload_.reserve(n + kBase + kPad);
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

  /// Packed-mode push with the key already in hand (the simulators keep
  /// each task's next key in their hot per-task record, so the queue
  /// never re-derives it).  Requires packed mode.
  void push_key(std::uint64_t key, std::int32_t task, std::int32_t seq) {
    const std::size_t ext = n_ + 1 + kBase + kPad;
    if (ext > keys_.capacity()) {
      const std::size_t want = std::max<std::size_t>(2 * ext, 64);
      keys_.reserve(want);
      payload_.reserve(want);
    }
    keys_.resize(ext);
    payload_.resize(ext);
    keys_.data()[ext - 1] = ~std::uint64_t{0};  // keep the pad window full
    ++n_;
    sift_up(n_ + kBase - 1, key, pack_ref(task, seq));
  }

  void push(const SubtaskRef& ref) {
    if (packed_) {
      push_key(pkeys_->order_key(ref), ref.task, ref.seq);
      return;
    }
    fb_.push_back(ref);
    std::push_heap(fb_.begin(), fb_.end(), Lower{this});
  }

  /// Removes and returns the highest-priority entry (possibly stale —
  /// see header note).  Precondition: !empty().
  SubtaskRef pop_best() {
    if (!packed_) {
      std::pop_heap(fb_.begin(), fb_.end(), Lower{this});
      const SubtaskRef ref = fb_.back();
      fb_.pop_back();
      return ref;
    }
    std::uint64_t* k = keys_.data();
    std::uint64_t* p = payload_.data();
    const std::uint64_t top = p[kBase];
    const std::size_t last = n_ + kBase - 1;
    const std::uint64_t lk = k[last];
    const std::uint64_t lp = p[last];
    --n_;
    keys_.resize(n_ + kBase + kPad);
    payload_.resize(n_ + kBase + kPad);
    k[last] = ~std::uint64_t{0};  // start of the shifted pad window
    if (n_ != 0) sift_down(lk, lp);
    return unpack_ref(top);
  }

  /// The task owning the current best entry (packed mode; !empty()).
  /// Lets the pop loop prefetch that task's hot record before popping.
  [[nodiscard]] std::int32_t peek_task() const {
    return static_cast<std::int32_t>(payload_.data()[kBase] >> 32);
  }

 private:
  // Physical heap layout: root at kBase, children of node i at
  // [8i - 48, 8i - 41], parent of node j at j/8 + 6; indices 0..kBase-1
  // unused.  kPad UINT64_MAX sentinels follow the last live slot.
  static constexpr std::size_t kBase = 7;
  static constexpr std::size_t kPad = 8;

  static std::uint64_t pack_ref(std::int32_t task, std::int32_t seq) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(task))
            << 32) |
           static_cast<std::uint32_t>(seq);
  }
  static SubtaskRef unpack_ref(std::uint64_t p) {
    return SubtaskRef{static_cast<std::int32_t>(p >> 32),
                      static_cast<std::int32_t>(p & 0xffffffffu)};
  }

  /// Empties the heap and re-establishes the pad window [kBase,
  /// kBase+kPad); the unused low slots are never read.
  void reset_packed() {
    n_ = 0;
    keys_.resize(kBase + kPad);
    payload_.resize(kBase + kPad);
    std::uint64_t* k = keys_.data();
    for (std::size_t i = kBase; i < kBase + kPad; ++i) k[i] = ~std::uint64_t{0};
  }

  void sift_up(std::size_t i, std::uint64_t key, std::uint64_t pay) {
    std::uint64_t* k = keys_.data();
    std::uint64_t* p = payload_.data();
    while (i > kBase) {
      const std::size_t parent = i / 8 + 6;
      if (k[parent] <= key) break;
      k[i] = k[parent];
      p[i] = p[parent];
      i = parent;
    }
    k[i] = key;
    p[i] = pay;
  }

  void sift_down(std::uint64_t key, std::uint64_t pay) {
    std::uint64_t* k = keys_.data();
    std::uint64_t* p = payload_.data();
    const std::size_t live_end = n_ + kBase - 1;
    std::size_t i = kBase;
    while (true) {
      const std::size_t c = 8 * i - 48;
      if (c > live_end) break;
      // The payload group's line is needed only if the move happens;
      // fetch it while argmin8 chews on the key line.
      simd::prefetch(p + c);
      const std::size_t j = c + simd::argmin8(k + c);
      if (k[j] >= key) break;  // padding is ~0, never taken
      k[i] = k[j];
      p[i] = p[j];
      i = j;
    }
    k[i] = key;
    p[i] = pay;
  }

  struct Lower {
    const ReadyQueue* q;
    bool operator()(const SubtaskRef& a, const SubtaskRef& b) const {
      return q->order_->higher(b, a);
    }
  };

  // Packed mode: parallel 8-ary heap arrays (64-byte aligned so each
  // child group is one cache line); payload = task << 32 | seq.
  ArenaVector<std::uint64_t, 64> keys_;
  ArenaVector<std::uint64_t, 64> payload_;
  std::size_t n_ = 0;  // live heap entries
  // Fallback mode (PF / fit overflow): comparator binary heap.
  std::vector<SubtaskRef> fb_;
  const PriorityOrder* order_;
  const PackedKeys* pkeys_;
  bool packed_;
};

}  // namespace pfair
