#include "tasks/window_table.hpp"

#include <numeric>

#include "core/assert.hpp"

namespace pfair {

std::shared_ptr<const WindowTable> WindowTable::build(const Weight& w) {
  const std::int64_t g = std::gcd(w.e, w.p);
  const std::int64_t e = w.e / g;
  const std::int64_t p = w.p / g;
  PFAIR_REQUIRE(e <= kMaxWindowTableEntries,
                "weight " << w.str() << " needs a window table over 2^20");

  auto t = std::shared_ptr<WindowTable>(new WindowTable());
  t->e_ = e;
  t->p_ = p;
  t->heavy_ = w.heavy();
  const auto n = static_cast<std::size_t>(e);
  t->release_.resize(n);
  t->deadline_.resize(n);
  t->bbit_.resize(n);
  for (std::int64_t rem = 0; rem < e; ++rem) {
    const std::int64_t i = rem + 1;
    const auto r = static_cast<std::size_t>(rem);
    t->release_[r] = winarith::release(e, p, i);
    t->deadline_[r] = winarith::deadline(e, p, i);
    t->bbit_[r] = winarith::bbit(e, p, i) ? 1 : 0;
  }

  if (t->heavy_) {
    // Backward pass for the PD2 group deadline: the cascade from index i
    // ends at the smallest j >= i with b(T_j) = 0 or |w(T_{j+1})| = 3, so
    //   D(T_i) = d(T_i)      if the cascade stops at i,
    //   D(T_i) = D(T_{i+1})  otherwise.
    // b(T_e) = 0 (e*p mod e = 0), so index e always stops and the
    // recurrence stays inside one period.
    t->group_deadline_.resize(n);
    PFAIR_ASSERT(t->bbit_[n - 1] == 0);
    for (std::int64_t rem = e - 1; rem >= 0; --rem) {
      const auto r = static_cast<std::size_t>(rem);
      const bool stops =
          t->bbit_[r] == 0 ||
          winarith::deadline(e, p, rem + 2) - winarith::release(e, p, rem + 2) >=
              3;
      t->group_deadline_[r] =
          stops ? t->deadline_[r] : t->group_deadline_[r + 1];
    }
  }
  return t;
}

std::size_t WindowTable::memory_bytes() const {
  return sizeof(WindowTable) +
         (release_.capacity() + deadline_.capacity() +
          group_deadline_.capacity()) *
             sizeof(std::int64_t) +
         bbit_.capacity() * sizeof(std::uint8_t);
}

WindowTableCache& WindowTableCache::global() {
  // Leaked singleton: tables may be referenced from static-duration task
  // objects, so the cache must never run a destructor racing teardown.
  static auto* cache = new WindowTableCache();
  return *cache;
}

std::shared_ptr<const WindowTable> WindowTableCache::get(const Weight& w) {
  const std::int64_t g = std::gcd(w.e, w.p);
  const std::int64_t e = w.e / g;
  const std::int64_t p = w.p / g;
  const Key key{e, p};
  Shard& shard = shards_[KeyHash{}(key) % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.tables.find(key);
  if (it != shard.tables.end()) return it->second;
  auto table = WindowTable::build(Weight(e, p));
  shard.tables.emplace(key, table);
  return table;
}

std::size_t WindowTableCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.tables.size();
  }
  return n;
}

void WindowTableCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.tables.clear();
  }
}

}  // namespace pfair
