// Flyweight per-weight window tables — the single implementation of the
// Pfair window parameters, Eqs. (2)-(4) of the paper, plus the PD2 b-bit
// and group deadline.
//
// Every window parameter of a zero-offset task is exactly periodic in the
// subtask index with period e (reduced):
//
//   r(T_{i+e}) = r(T_i) + p      (Eq. (2) left)
//   d(T_{i+e}) = d(T_i) + p      (Eq. (2) right)
//   b(T_{i+e}) = b(T_i)
//   D(T_{i+e}) = D(T_i) + p      (group deadline)
//
// so one immutable table of e entries determines every subtask of every
// periodic/sporadic task sharing that weight — the flyweight analogue of
// precomputed release tables in real RTOS schedulers.  All parameters
// depend only on the *reduced* rate e/p (the quotients i*p/e are
// representation-independent), so tables are built and cached once per
// distinct rate: a 2/4 task and a 1/2 task share one table.  (Job
// boundaries — early-release eligibility — do depend on the raw (e, p)
// pair and are computed by `Task`, not here.)
//
// Group deadlines are filled by a single O(e) backward pass over the
// period instead of the O(e) forward cascade scan per index: the cascade
// from index i ends at the smallest j >= i with b(T_j) = 0 or
// |w(T_{j+1})| = 3, so D(T_i) = d(T_i) if the cascade stops at i and
// D(T_i) = D(T_{i+1}) otherwise.  b(T_e) = 0 always (e*p mod e = 0), so
// no cascade crosses a period boundary and the recurrence never wraps.
//
// `WindowTableCache` shares tables process-wide: thread-safe (sharded
// mutexes — bench sweeps build thousands of task systems on the thread
// pool, all drawing from a small weight universe), keyed by reduced
// weight, each table built exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/rational.hpp"
#include "tasks/weight.hpp"

namespace pfair {

/// Raw window arithmetic on an (e, p) pair — the one place Eqs. (2)-(4)
/// are spelled out.  `tasks/windows.hpp` and the table builder below are
/// thin wrappers.  All intermediates are 128-bit, so any (index, e, p)
/// whose result fits in 64 bits is exact.
namespace winarith {

/// r(T_i) = floor((i-1) * p / e), Eq. (2) left (zero offset).
[[nodiscard]] inline std::int64_t release(std::int64_t e, std::int64_t p,
                                          std::int64_t i) {
  return floor_div_mul(i - 1, p, e);
}

/// d(T_i) = ceil(i * p / e), Eq. (2) right (zero offset).
[[nodiscard]] inline std::int64_t deadline(std::int64_t e, std::int64_t p,
                                           std::int64_t i) {
  return ceil_div_mul(i, p, e);
}

/// b(T_i) = 1 iff d(T_i) > r(T_{i+1}) iff e does not divide i*p.
[[nodiscard]] inline bool bbit(std::int64_t e, std::int64_t p,
                               std::int64_t i) {
  return (static_cast<__int128>(i) * p) % e != 0;
}

}  // namespace winarith

/// The most entries (reduced numerator e) a WindowTable is built with:
/// 2^20, about 25 MiB.  A larger table is refused, never allocated.
inline constexpr std::int64_t kMaxWindowTableEntries = std::int64_t{1} << 20;

/// One period of window parameters for a reduced weight.  Immutable after
/// construction; shared across tasks via `shared_ptr<const WindowTable>`.
/// Entry slot `rem` in [0, e) holds the parameters of subtask index
/// `rem + 1`; an arbitrary index i >= 1 decomposes as
/// i = q*e + (rem + 1), and every time parameter shifts by q*p.
class WindowTable {
 public:
  /// Builds the table for the reduced form of `w` (O(e reduced) time and
  /// memory).  Prefer `WindowTableCache::get` for shared construction.
  [[nodiscard]] static std::shared_ptr<const WindowTable> build(
      const Weight& w);

  /// Reduced numerator (the table period).
  [[nodiscard]] std::int64_t e() const { return e_; }
  /// Reduced denominator.
  [[nodiscard]] std::int64_t p() const { return p_; }
  [[nodiscard]] bool heavy() const { return heavy_; }

  /// r(T_i) of a zero-offset task, any i >= 1.
  [[nodiscard]] std::int64_t release(std::int64_t i) const {
    const std::int64_t q = (i - 1) / e_;
    return q * p_ + release_[static_cast<std::size_t>((i - 1) % e_)];
  }
  /// d(T_i) of a zero-offset task, any i >= 1.
  [[nodiscard]] std::int64_t deadline(std::int64_t i) const {
    const std::int64_t q = (i - 1) / e_;
    return q * p_ + deadline_[static_cast<std::size_t>((i - 1) % e_)];
  }
  /// b(T_i), any i >= 1.
  [[nodiscard]] bool bbit(std::int64_t i) const {
    return bbit_[static_cast<std::size_t>((i - 1) % e_)] != 0;
  }
  /// D(T_i) of a zero-offset task, any i >= 1; 0 for light weights.
  [[nodiscard]] std::int64_t group_deadline(std::int64_t i) const {
    if (!heavy_) return 0;
    const std::int64_t q = (i - 1) / e_;
    return q * p_ + group_deadline_[static_cast<std::size_t>((i - 1) % e_)];
  }

  /// Per-period entries for callers that walk indices sequentially (the
  /// packed-key precompute): parameters of index rem+1, rem in [0, e).
  [[nodiscard]] std::int64_t release_at(std::int64_t rem) const {
    return release_[static_cast<std::size_t>(rem)];
  }
  [[nodiscard]] std::int64_t deadline_at(std::int64_t rem) const {
    return deadline_[static_cast<std::size_t>(rem)];
  }
  [[nodiscard]] bool bbit_at(std::int64_t rem) const {
    return bbit_[static_cast<std::size_t>(rem)] != 0;
  }
  /// Group deadline entry (meaningful for heavy weights only).
  [[nodiscard]] std::int64_t group_deadline_at(std::int64_t rem) const {
    return group_deadline_[static_cast<std::size_t>(rem)];
  }

  /// Heap bytes held by the table (for memory accounting in benches).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  WindowTable() = default;

  std::int64_t e_ = 1;
  std::int64_t p_ = 1;
  bool heavy_ = false;
  std::vector<std::int64_t> release_;         // [e]
  std::vector<std::int64_t> deadline_;        // [e]
  std::vector<std::int64_t> group_deadline_;  // [e]; empty for light
  std::vector<std::uint8_t> bbit_;            // [e]
};

/// Process-wide, thread-safe, sharded cache of window tables keyed by
/// reduced weight.  `get` builds a missing table under its shard lock;
/// every later request for the same rate returns the shared instance.
class WindowTableCache {
 public:
  WindowTableCache() = default;
  WindowTableCache(const WindowTableCache&) = delete;
  WindowTableCache& operator=(const WindowTableCache&) = delete;

  /// The process-wide cache used when no explicit cache is supplied.
  [[nodiscard]] static WindowTableCache& global();

  /// The table for `w`'s reduced rate, building it on first use.
  [[nodiscard]] std::shared_ptr<const WindowTable> get(const Weight& w);

  /// Number of distinct tables currently cached.
  [[nodiscard]] std::size_t size() const;

  /// Drops all cached tables (tables still referenced by tasks live on).
  void clear();

 private:
  static constexpr std::size_t kShards = 16;

  /// Reduced (e, p) — coprime with e <= p, so it identifies the rate.
  struct Key {
    std::int64_t e;
    std::int64_t p;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const {
      // splitmix-style mix of both halves; shard selection reuses it.
      std::uint64_t h = static_cast<std::uint64_t>(k.e) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<std::uint64_t>(k.p) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<const WindowTable>, KeyHash>
        tables;
  };

  Shard shards_[kShards];
};

}  // namespace pfair
