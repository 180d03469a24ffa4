// A monotone bucket queue of task ids over integer slots: park a task
// under the slot at which it becomes due, drain the earliest non-empty
// slot.  Both simulators keep their calendar in one — SfqSimulator's
// availability calendar and DvqSimulator's readiness calendar (task ids
// under the slot at which a head becomes available).
//
// Monotone: a push may not go below floor(), the slot after the last
// drained one, so the earliest non-empty slot only moves forward and
// finding the next one after a drain is an amortized forward scan.
//
// Layout: a head array indexed by slot - base (grown geometrically,
// -1 = empty) whose entries chain fixed-size chunks, recycled through a
// freelist — at most one chunk per slot is partially filled, and a
// drained chunk is reused by the next push.  A chunk is one cache line:
// an 8-byte header and 14 task ids; draining walks whole chunks, which
// measured faster than a per-entry intrusive list.  The head array spans
// base .. the largest pushed slot, so memory grows with the slot range
// in use, not only with the entry count.  With an Arena supplied all
// storage is bump-allocated there.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "core/arena.hpp"
#include "core/assert.hpp"
#include "core/simd.hpp"

namespace pfair {

class SlotBuckets {
 public:
  /// Task ids per chunk.
  static constexpr std::size_t kCap = (64 - 8) / sizeof(std::int32_t);

  /// An empty queue with floor() == 0.
  explicit SlotBuckets(Arena* arena = nullptr) : head_(arena), chunks_(arena) {}

  /// Drops every entry and restarts at floor() == base, indexing from
  /// there (so a queue rebased far ahead does not span the gap).
  void reset(std::int64_t base) {
    head_.clear();
    chunks_.clear();
    free_ = -1;
    size_ = 0;
    base_ = base;
    floor_ = base;
    min_ = kNone;
  }

  /// Parks task `task` under `slot`; requires slot >= floor().
  void push(std::int64_t slot, std::int32_t task) {
    PFAIR_ASSERT(slot >= floor_);
    const auto s = static_cast<std::size_t>(slot - base_);
    if (s >= head_.size()) {
      const std::size_t old = head_.size();
      const std::size_t grown = std::max(s + 1, old * 2);
      head_.resize(grown);
      for (std::size_t i = old; i < grown; ++i) head_[i] = -1;
    }
    std::int32_t c = head_[s];
    if (c < 0 || chunks_[static_cast<std::size_t>(c)].count == kCap) {
      std::int32_t fresh;
      if (free_ >= 0) {
        fresh = free_;
        free_ = chunks_[static_cast<std::size_t>(fresh)].next;
      } else {
        fresh = static_cast<std::int32_t>(chunks_.size());
        chunks_.push_back(Chunk{});  // geometric growth
      }
      Chunk& ch = chunks_[static_cast<std::size_t>(fresh)];
      ch.count = 0;
      ch.next = c;
      head_[s] = fresh;
      c = fresh;
    }
    Chunk& ch = chunks_[static_cast<std::size_t>(c)];
    ch.tasks[ch.count++] = task;
    ++size_;
    min_ = std::min(min_, slot);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Task ids across all slots.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The lowest slot a push may use.
  [[nodiscard]] std::int64_t floor() const { return floor_; }
  /// The earliest non-empty slot; requires !empty().
  [[nodiscard]] std::int64_t min_slot() const {
    PFAIR_ASSERT(size_ != 0);
    return min_;
  }

  /// Empties slot min_slot(), handing `f` its task ids one chunk at a
  /// time as a std::span<const std::int32_t> (in no particular order), and
  /// raises floor() past it.  Requires !empty(); `f` must not push
  /// into this queue.
  template <class F>
  void drain_min(F&& f) {
    const auto s = static_cast<std::size_t>(min_slot() - base_);
    std::int32_t c = head_[s];
    head_[s] = -1;
    while (c >= 0) {
      Chunk& ch = chunks_[static_cast<std::size_t>(c)];
      if (ch.next >= 0) {
        simd::prefetch(&chunks_[static_cast<std::size_t>(ch.next)]);
      }
      f(std::span<const std::int32_t>(ch.tasks, ch.count));
      size_ -= ch.count;
      const std::int32_t next = ch.next;
      ch.next = free_;
      free_ = c;
      c = next;
    }
    floor_ = min_ + 1;
    if (size_ == 0) {
      min_ = kNone;
      return;
    }
    std::size_t d = s + 1;
    while (head_[d] < 0) ++d;
    min_ = base_ + static_cast<std::int64_t>(d);
  }

 private:
  static constexpr std::int64_t kNone =
      std::numeric_limits<std::int64_t>::max();

  struct Chunk {
    std::uint32_t count;
    std::int32_t next;  // next chunk of this slot (or of the freelist)
    std::int32_t tasks[kCap];
  };
  static_assert(sizeof(Chunk) == 64);

  ArenaVector<std::int32_t> head_;  // [slot - base_] -> first chunk or -1
  ArenaVector<Chunk> chunks_;
  std::int32_t free_ = -1;
  std::size_t size_ = 0;
  std::int64_t base_ = 0;
  std::int64_t floor_ = 0;
  std::int64_t min_ = kNone;
};

}  // namespace pfair
