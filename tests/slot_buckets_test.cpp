// The scheduler's shared slot structures, tested directly: the monotone
// bucket queue behind both simulators' calendars and the ready queue's
// deadline staging (sched/slot_buckets.hpp), and the ready queue itself
// (sched/ready_queue.hpp), whose pops must come out in priority order
// under any interleaving of pushes, pops and rebasing clears, in both
// the packed-key and the comparator (PF) modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/rng.hpp"
#include "sched/packed_key.hpp"
#include "sched/priority.hpp"
#include "sched/ready_queue.hpp"
#include "sched/slot_buckets.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

struct Pair {
  std::uint64_t key;
  std::uint64_t pay;
};

static_assert(SlotBuckets<std::int32_t>::kCap == 14);
static_assert(SlotBuckets<Pair>::kCap == 7);

// Drains the earliest slot, returning its entries (sorted) and checking
// that no chunk exceeds the capacity.
template <class Entry>
std::vector<Entry> drain(SlotBuckets<Entry>& q) {
  std::vector<Entry> out;
  q.drain_min([&](std::span<const Entry> chunk) {
    EXPECT_GE(chunk.size(), 1u);
    EXPECT_LE(chunk.size(), SlotBuckets<Entry>::kCap);
    out.insert(out.end(), chunk.begin(), chunk.end());
  });
  return out;
}

std::vector<std::int32_t> iota(std::int32_t n) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

TEST(SlotBuckets, OneSlotHoldsMoreThanAChunk) {
  SlotBuckets<std::int32_t> q;
  constexpr auto kCap =
      static_cast<std::int32_t>(SlotBuckets<std::int32_t>::kCap);
  const std::int32_t n = 3 * kCap + 5;
  for (std::int32_t i = 0; i < n; ++i) q.push(5, i);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(q.min_slot(), 5);
  std::vector<std::int32_t> got = drain(q);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, iota(n));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.floor(), 6);
}

TEST(SlotBuckets, DrainsSlotsInOrderAcrossGaps) {
  SlotBuckets<std::int32_t> q;
  q.push(2000, 4);
  q.push(3, 1);
  q.push(100, 3);
  q.push(7, 2);
  q.push(3, 0);
  const std::vector<std::pair<std::int64_t, std::vector<std::int32_t>>> want =
      {{3, {0, 1}}, {7, {2}}, {100, {3}}, {2000, {4}}};
  for (const auto& [slot, ids] : want) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.min_slot(), slot);
    std::vector<std::int32_t> got = drain(q);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, ids);
    EXPECT_EQ(q.floor(), slot + 1);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(SlotBuckets, FloorBoundsPushesAndMinFollowsThem) {
  SlotBuckets<std::int32_t> q;
  EXPECT_EQ(q.floor(), 0);
  q.push(10, 0);
  q.push(20, 1);
  (void)drain(q);
  EXPECT_EQ(q.floor(), 11);
  EXPECT_EQ(q.min_slot(), 20);
  // Below the floor is a contract violation; at it, the new minimum.
  EXPECT_THROW(q.push(10, 2), ContractViolation);
  q.push(11, 3);
  EXPECT_EQ(q.min_slot(), 11);
  q.push(15, 4);
  EXPECT_EQ(q.min_slot(), 11);
  EXPECT_EQ(drain(q), std::vector<std::int32_t>{3});
  EXPECT_EQ(q.min_slot(), 15);
  EXPECT_EQ(q.floor(), 12);
  // A push between the floor and the current minimum is the minimum.
  q.push(13, 5);
  EXPECT_EQ(q.min_slot(), 13);
  EXPECT_EQ(q.size(), 3u);
}

TEST(SlotBuckets, ResetRebasesBelowAndAboveTheOldBase) {
  SlotBuckets<Pair> q;
  for (std::uint64_t i = 0; i < 20; ++i) {
    q.push(10 + static_cast<std::int64_t>(i), Pair{i, ~i});
  }
  q.reset(1'000'000);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.floor(), 1'000'000);
  EXPECT_THROW(q.push(999'999, Pair{0, 0}), ContractViolation);
  q.push(1'000'005, Pair{7, 8});
  q.push(1'000'000, Pair{5, 6});
  EXPECT_EQ(q.min_slot(), 1'000'000);
  std::vector<Pair> got = drain(q);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].key, 5u);
  EXPECT_EQ(got[0].pay, 6u);
  EXPECT_EQ(q.min_slot(), 1'000'005);

  q.reset(-50);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.floor(), -50);
  EXPECT_THROW(q.push(-51, Pair{0, 0}), ContractViolation);
  q.push(-40, Pair{2, 0});
  q.push(-50, Pair{1, 0});
  EXPECT_EQ(q.min_slot(), -50);
  EXPECT_EQ(drain(q)[0].key, 1u);
  EXPECT_EQ(q.min_slot(), -40);
  EXPECT_EQ(drain(q)[0].key, 2u);
  EXPECT_EQ(q.floor(), -39);
  EXPECT_TRUE(q.empty());
}

// Drained chunks go back to a freelist that later pushes reuse, and a
// reset keeps every buffer: once warm, neither a long run of pushes and
// drains nor a run of rebased restarts takes another byte of the arena.
TEST(SlotBuckets, FreelistAndResetReuseStorage) {
  Arena arena;
  SlotBuckets<std::int32_t> q(&arena);
  const std::int32_t per_slot =
      2 * static_cast<std::int32_t>(SlotBuckets<std::int32_t>::kCap) + 3;
  const auto run = [&](std::int64_t base) {
    q.reset(base);
    q.push(base + 1000, -1);  // sizes the head array for the whole run
    for (std::int64_t s = base; s < base + 1000; ++s) {
      for (std::int32_t i = 0; i < per_slot; ++i) q.push(s, i);
      ASSERT_EQ(q.min_slot(), s);
      ASSERT_EQ(drain(q).size(), static_cast<std::size_t>(per_slot));
    }
    ASSERT_EQ(q.size(), 1u);
  };
  run(0);
  const std::size_t warm = arena.used_bytes();
  run(0);
  run(123'456);
  run(-7);
  EXPECT_EQ(arena.used_bytes(), warm);
}

// -------------------------------------------------------------- ReadyQueue

TaskSystem small_system(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.processors = 3;
  cfg.target_util = Rational(3);
  cfg.horizon = 60;
  return generate_periodic(cfg);
}

std::vector<SubtaskRef> all_refs(const TaskSystem& sys) {
  std::vector<SubtaskRef> out;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      out.push_back(SubtaskRef{k, s});
    }
  }
  return out;
}

// Packed mode with synthetic keys spread over many deadline slots, so
// most pushes are staged: every pop is the least key queued, across
// clears that rebase the staging below and above earlier deadlines.
TEST(ReadyQueue, PackedPopsAscendUnderRandomInterleavings) {
  const TaskSystem sys = small_system(3);
  const PriorityOrder order(sys, Policy::kPd2);
  const PackedKeys keys(sys, Policy::kPd2);
  ASSERT_TRUE(keys.packable());
  // Deadline fields up to 2^24 fit above the low bits.
  const int shift = keys.deadline_shift();
  ASSERT_LE(shift, 40);
  const std::int64_t bias = keys.deadline_of(0);
  for (const bool with_arena : {false, true}) {
    Arena arena;
    ReadyQueue q(order, keys, with_arena ? &arena : nullptr);
    Rng rng(with_arena ? 11 : 7);
    std::set<std::uint64_t> model;                  // live keys
    std::vector<std::uint64_t> by_id;               // payload id -> key
    std::int64_t lo = 0;                            // deadline window
    for (int op = 0; op < 20000; ++op) {
      const std::int64_t r = rng.uniform(0, 99);
      if (r < 55) {
        // Mostly ahead of the pops (staged), some behind (straight to
        // the heap).
        const std::int64_t ds =
            std::max<std::int64_t>(0, lo + rng.uniform(-20, 300));
        const std::uint64_t low = static_cast<std::uint64_t>(
            rng.uniform(0, (std::int64_t{1} << shift) - 1));
        const std::uint64_t key =
            (static_cast<std::uint64_t>(ds) << shift) | low;
        if (!model.insert(key).second) continue;
        q.push_key(key, static_cast<std::int32_t>(by_id.size()), 0);
        by_id.push_back(key);
      } else if (r < 98) {
        if (model.empty()) {
          ASSERT_TRUE(q.empty());
          continue;
        }
        ASSERT_EQ(q.size(), model.size());
        const SubtaskRef got = q.pop_best();
        ASSERT_EQ(by_id[static_cast<std::size_t>(got.task)], *model.begin())
            << "op " << op;
        // The push window follows the pops forward.
        lo = static_cast<std::int64_t>(*model.begin() >> shift);
        model.erase(model.begin());
      } else {
        // Rebase anywhere around the live window, as warp does.
        const std::int64_t base = bias + lo + rng.uniform(-50, 400);
        q.clear(base);
        model.clear();
        ASSERT_TRUE(q.empty());
        lo = std::max<std::int64_t>(0, base - bias + rng.uniform(-100, 100));
      }
    }
    while (!model.empty()) {
      ASSERT_EQ(by_id[static_cast<std::size_t>(q.pop_best().task)],
                *model.begin());
      model.erase(model.begin());
    }
    EXPECT_TRUE(q.empty());
  }
}

// Both modes with real subtasks (push by ref): PD2 through the packed
// keys, PF through PriorityOrder::higher.  Each pop is the entry no
// other queued entry outranks.
TEST(ReadyQueue, PopsFollowThePriorityOrderInBothModes) {
  for (const Policy policy : {Policy::kPd2, Policy::kPf}) {
    SCOPED_TRACE(policy == Policy::kPf ? "PF (fallback)" : "PD2 (packed)");
    const TaskSystem sys = small_system(5);
    const PriorityOrder order(sys, policy);
    const PackedKeys keys(sys, policy);
    ASSERT_EQ(keys.packable(), policy != Policy::kPf);
    const std::vector<SubtaskRef> refs = all_refs(sys);
    ASSERT_GT(refs.size(), 100u);
    ReadyQueue q(order, keys);
    Rng rng(19);
    std::vector<SubtaskRef> live;
    std::vector<bool> queued(refs.size(), false);
    const auto index_of = [&](const SubtaskRef& r) {
      return static_cast<std::size_t>(sys.flat_index(r));
    };
    for (int op = 0; op < 6000; ++op) {
      const std::int64_t r = rng.uniform(0, 99);
      if (r < 55) {
        const SubtaskRef ref = refs[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(refs.size()) - 1))];
        if (queued[index_of(ref)]) continue;
        queued[index_of(ref)] = true;
        q.push(ref);
        live.push_back(ref);
      } else if (r < 97) {
        if (live.empty()) {
          ASSERT_TRUE(q.empty());
          continue;
        }
        ASSERT_EQ(q.size(), live.size());
        const auto best = std::min_element(
            live.begin(), live.end(),
            [&](const SubtaskRef& a, const SubtaskRef& b) {
              return order.higher(a, b);
            });
        const SubtaskRef got = q.pop_best();
        ASSERT_EQ(got, *best) << "op " << op;
        queued[index_of(got)] = false;
        live.erase(best);
      } else {
        q.clear(rng.uniform(0, 60));
        for (const SubtaskRef& ref : live) queued[index_of(ref)] = false;
        live.clear();
        ASSERT_TRUE(q.empty());
      }
    }
  }
}

}  // namespace
}  // namespace pfair
