// The scheduler's shared slot structures, tested directly: the monotone
// bucket queue of task ids behind both simulators' calendars
// (sched/slot_buckets.hpp), and the ready queue (sched/ready_queue.hpp),
// whose pops must come out in priority order under any interleaving of
// pushes, pops and clears, in both the packed-key and the comparator
// (PF) modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/rng.hpp"
#include "sched/packed_key.hpp"
#include "sched/positions.hpp"
#include "sched/priority.hpp"
#include "sched/ready_queue.hpp"
#include "sched/slot_buckets.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

static_assert(SlotBuckets::kCap == 14);

// Drains the earliest slot, returning its task ids and checking that no
// chunk exceeds the capacity.
std::vector<std::int32_t> drain(SlotBuckets& q) {
  std::vector<std::int32_t> out;
  q.drain_min([&](std::span<const std::int32_t> chunk) {
    EXPECT_GE(chunk.size(), 1u);
    EXPECT_LE(chunk.size(), SlotBuckets::kCap);
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
  SlotBuckets q;
  constexpr auto kCap = static_cast<std::int32_t>(SlotBuckets::kCap);
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
  SlotBuckets q;
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
  SlotBuckets q;
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
  SlotBuckets q;
  for (std::int32_t i = 0; i < 20; ++i) q.push(10 + i, i);
  q.reset(1'000'000);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.floor(), 1'000'000);
  EXPECT_THROW(q.push(999'999, 0), ContractViolation);
  q.push(1'000'005, 7);
  q.push(1'000'000, 5);
  EXPECT_EQ(q.min_slot(), 1'000'000);
  EXPECT_EQ(drain(q), std::vector<std::int32_t>{5});
  EXPECT_EQ(q.min_slot(), 1'000'005);

  q.reset(-50);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.floor(), -50);
  EXPECT_THROW(q.push(-51, 0), ContractViolation);
  q.push(-40, 2);
  q.push(-50, 1);
  EXPECT_EQ(q.min_slot(), -50);
  EXPECT_EQ(drain(q), std::vector<std::int32_t>{1});
  EXPECT_EQ(q.min_slot(), -40);
  EXPECT_EQ(drain(q), std::vector<std::int32_t>{2});
  EXPECT_EQ(q.floor(), -39);
  EXPECT_TRUE(q.empty());
}

// Drained chunks go back to a freelist that later pushes reuse, and a
// reset keeps every buffer: once warm, neither a long run of pushes and
// drains nor a run of rebased restarts takes another byte of the arena.
TEST(SlotBuckets, FreelistAndResetReuseStorage) {
  Arena arena;
  SlotBuckets q(&arena);
  const std::int32_t per_slot =
      2 * static_cast<std::int32_t>(SlotBuckets::kCap) + 3;
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

// Packed mode with synthetic keys drawn from the whole 64-bit range (so
// deadline fields far beyond any slot index occur), each carrying a
// distinct live task id in the tie field of a system of 4096 tasks (a
// 12-bit field): every pop is the least live key, and peek_task names
// its task, across clears, with and without an arena.
TEST(ReadyQueue, PackedPopsAscendUnderRandomInterleavings) {
  constexpr std::int32_t kTasks = 4096;
  constexpr std::uint64_t kTaskMask = kTasks - 1;
  std::vector<Task> tasks;
  for (std::int32_t k = 0; k < kTasks; ++k) {
    tasks.push_back(Task::periodic("t" + std::to_string(k),
                                   Weight(1, kTasks), kTasks));
  }
  const TaskSystem sys(std::move(tasks), 1);
  const PriorityOrder order(sys, Policy::kPd2);
  const PackedKeys keys(sys, Policy::kPd2);
  ASSERT_TRUE(keys.packable());
  for (const bool with_arena : {false, true}) {
    Arena arena;
    ReadyQueue q(order, keys, with_arena ? &arena : nullptr);
    Rng rng(with_arena ? 11 : 7);
    std::set<std::uint64_t> model;  // live keys
    std::vector<std::int32_t> idle(static_cast<std::size_t>(kTasks));
    for (std::int32_t k = 0; k < kTasks; ++k) {
      idle[static_cast<std::size_t>(k)] = k;
    }
    for (int op = 0; op < 20000; ++op) {
      const std::int64_t r = rng.uniform(0, 99);
      if (r < 55) {
        if (idle.empty()) continue;
        // Half the keys near the live minimum, half anywhere; ~0 is the
        // heap's padding value, never a key.
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(idle.size()) - 1));
        const auto task = static_cast<std::uint64_t>(idle[pick]);
        const std::uint64_t high =
            r < 28 && !model.empty()
                ? *model.begin() + rng.next_u64() % 4 * (kTaskMask + 1)
                : rng.next_u64();
        const std::uint64_t key = (high & ~kTaskMask) | task;
        if (key == ~std::uint64_t{0}) continue;
        ASSERT_TRUE(model.insert(key).second);
        HeadCursor head{};
        head.next_key = key;
        q.push(static_cast<std::int32_t>(task), head);
        idle[pick] = idle.back();
        idle.pop_back();
      } else if (r < 98) {
        if (model.empty()) {
          ASSERT_TRUE(q.empty());
          continue;
        }
        ASSERT_EQ(q.size(), model.size());
        const auto want = static_cast<std::int32_t>(*model.begin() & kTaskMask);
        ASSERT_EQ(q.peek_task(), want) << "op " << op;
        ASSERT_EQ(q.pop_task(), want) << "op " << op;
        model.erase(model.begin());
        idle.push_back(want);
      } else {
        q.clear();
        for (const std::uint64_t key : model) {
          idle.push_back(static_cast<std::int32_t>(key & kTaskMask));
        }
        model.clear();
        ASSERT_TRUE(q.empty());
      }
    }
    while (!model.empty()) {
      ASSERT_EQ(q.pop_task(),
                static_cast<std::int32_t>(*model.begin() & kTaskMask));
      model.erase(model.begin());
    }
    EXPECT_TRUE(q.empty());
  }
}

// Both modes with real subtasks, at most one queued per task (as the
// simulators queue them): PD2 through the packed keys, PF through
// PriorityOrder::higher.  Each pop, and the peek before it, is the task
// whose entry no other queued entry outranks.
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
    std::vector<bool> queued(static_cast<std::size_t>(sys.num_tasks()), false);
    const auto task_index = [](const SubtaskRef& r) {
      return static_cast<std::size_t>(r.task);
    };
    for (int op = 0; op < 6000; ++op) {
      const std::int64_t r = rng.uniform(0, 99);
      if (r < 55) {
        const SubtaskRef ref = refs[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(refs.size()) - 1))];
        if (queued[task_index(ref)]) continue;
        queued[task_index(ref)] = true;
        HeadCursor head{};
        head.head = ref.seq;
        head.next_key = keys.packable() ? keys.order_key(ref) : 0;
        q.push(ref.task, head);
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
        ASSERT_EQ(q.peek_task(), best->task) << "op " << op;
        ASSERT_EQ(q.pop_task(), best->task) << "op " << op;
        queued[task_index(*best)] = false;
        live.erase(best);
      } else {
        q.clear();
        for (const SubtaskRef& ref : live) queued[task_index(ref)] = false;
        live.clear();
        ASSERT_TRUE(q.empty());
      }
    }
  }
}

}  // namespace
}  // namespace pfair
