// Storage follows the work: a fast-forwarded run allocates schedule
// cells for the seqs it simulates, not for its horizon.  A 64-
// hyperperiod periodic system (the shape of the steady-state benchmark:
// weights 1/p over periods dividing 192, every 64th task heavy, plus one
// task filling the last processor) runs through both cyclic drivers; each run must engage,
// allocate under an eighth of the bytes a full-shape cell block takes
// (total_subtasks × 16), and match the unprobed run placement for
// placement.  The unprobed runs themselves must allocate at least that
// block, which shows that the counter sees the cell blocks.
//
// This test replaces global operator new/delete with counting versions
// (as bounded_memory_test does), so it gets its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "dvq/dvq_cycle.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "dvq/yield.hpp"
#include "sched/compressed_schedule.hpp"
#include "sched/sfq_scheduler.hpp"

namespace {
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, n) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, sizeof(void*)); }
void* operator new[](std::size_t n) { return counted_alloc(n, sizeof(void*)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pfair {
namespace {

// Both schedules' cells are 16 bytes (static_asserted in their headers).
constexpr std::uint64_t kCellBytes = 16;
constexpr std::int64_t kHyperperiod = 192;
constexpr std::int64_t kPeriods[] = {16, 24, 32, 48, 64};

TaskSystem steady_system(std::int64_t n, std::int64_t hyperperiods) {
  const std::int64_t horizon = hyperperiods * kHyperperiod;
  std::vector<Task> tasks;
  std::int64_t util = 0;  // in units of 1/kHyperperiod
  for (std::int64_t i = 0; i < n; ++i) {
    // Weight 1/p, every 64th task heavy (e in [p/2, p)).
    const std::int64_t p = kPeriods[i % 5];
    const std::int64_t e = i % 64 == 63 ? p / 2 + (i / 64) % (p / 2) : 1;
    tasks.push_back(Task::periodic("t" + std::to_string(i), Weight(e, p),
                                   horizon));
    util += e * (kHyperperiod / p);
  }
  const std::int64_t procs = (util + kHyperperiod - 1) / kHyperperiod;
  if (procs * kHyperperiod > util) {
    tasks.push_back(Task::periodic(
        "fill", Weight(procs * kHyperperiod - util, kHyperperiod), horizon));
  }
  return TaskSystem(std::move(tasks), static_cast<int>(procs));
}

/// Bytes `f` allocates.
template <class F>
std::uint64_t bytes_of(F&& f) {
  const std::uint64_t before = g_bytes.load();
  f();
  return g_bytes.load() - before;
}

bool same(const SlotPlacement& a, const SlotPlacement& b) {
  return a.slot == b.slot && a.proc == b.proc;
}
bool same(const DvqPlacement& a, const DvqPlacement& b) {
  return a.placed == b.placed && a.start == b.start && a.cost == b.cost &&
         a.proc == b.proc;
}

template <class Sched>
bool same_placements(const TaskSystem& sys, const Sched& a,
                     const Sched& b) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      if (!same(a.placement({k, s}), b.placement({k, s}))) return false;
    }
  }
  return true;
}

class StorageFollowsTheWork : public ::testing::Test {
 protected:
  const TaskSystem sys = steady_system(160, 64);
  const std::uint64_t full_block =
      static_cast<std::uint64_t>(sys.total_subtasks()) * kCellBytes;
};

TEST_F(StorageFollowsTheWork, Sfq) {
  std::optional<CycleSchedule> cyc;
  const std::uint64_t bytes =
      bytes_of([&] { cyc.emplace(schedule_sfq_cyclic(sys)); });
  ASSERT_TRUE(cyc->stats().engaged);
  EXPECT_LT(bytes, full_block / 8);

  SfqOptions full;
  full.cycle_detect = false;
  std::optional<SlotSchedule> want;
  EXPECT_GE(bytes_of([&] { want.emplace(schedule_sfq(sys, full)); }),
            full_block);
  ASSERT_TRUE(want->complete());
  EXPECT_TRUE(same_placements(sys, cyc->materialize(), *want));
}

TEST_F(StorageFollowsTheWork, Dvq) {
  const FixedYield yields(Time::slots_frac(0, 3, 4));
  std::optional<DvqCycleSchedule> cyc;
  const std::uint64_t bytes =
      bytes_of([&] { cyc.emplace(schedule_dvq_cyclic(sys, yields)); });
  ASSERT_TRUE(cyc->stats().engaged);
  EXPECT_LT(bytes, full_block / 8);

  DvqOptions full;
  full.cycle_detect = false;
  std::optional<DvqSchedule> want;
  EXPECT_GE(bytes_of([&] { want.emplace(schedule_dvq(sys, yields, full)); }),
            full_block);
  ASSERT_TRUE(want->complete());
  EXPECT_TRUE(same_placements(sys, cyc->materialize(), *want));
}

}  // namespace
}  // namespace pfair
