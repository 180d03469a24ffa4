// Memory bound on hostile inputs: a pseudo-deadline near 2^40 must cost
// what a small one does.  Each task file below pairs a short-period
// task with one of weight 1/2^40, so the largest pseudo-deadline is
// 2^40 while only a few thousand subtasks exist.  Both models must
// schedule each to a complete, valid schedule with zero tardiness, and
// the whole case — parse, build, schedule, check — must allocate at
// most 64 MiB in total.  Anything indexed by pseudo-deadline would
// allocate terabytes here (and throw std::bad_alloc).
//
// This test replaces global operator new/delete with counting versions
// (as steady_alloc_test does), so it gets its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>

#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "dvq/yield.hpp"
#include "io/parse.hpp"
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

constexpr std::uint64_t kBudget = std::uint64_t{64} << 20;

constexpr std::string_view kHalfAndTiny =
    "processors 2\n"
    "task a 1/2\n"
    "task b 1/1099511627776\n";
constexpr std::string_view kHeavyAndTiny =
    "processors 2\n"
    "task a 1048575/1048576\n"
    "task b 1/1099511627776\n";

void expect_clean_sfq(std::string_view text) {
  const std::uint64_t before = g_bytes.load();
  {
    const TaskSystem sys = parse_task_string(text).build();
    const SlotSchedule sched = schedule_sfq(sys);
    EXPECT_TRUE(check_slot_schedule(sys, sched).valid());
    const TardinessSummary tard = measure_tardiness(sys, sched);
    EXPECT_GT(tard.total_subtasks, 0);
    EXPECT_TRUE(tard.none_late());
    EXPECT_EQ(tard.max_ticks, 0);
  }
  EXPECT_LE(g_bytes.load() - before, kBudget);
}

void expect_clean_dvq(std::string_view text) {
  const std::uint64_t before = g_bytes.load();
  {
    const TaskSystem sys = parse_task_string(text).build();
    const DvqSchedule sched = schedule_dvq(sys, FullQuantumYield());
    EXPECT_TRUE(check_dvq_schedule(sys, sched).valid());
    const TardinessSummary tard = measure_tardiness(sys, sched);
    EXPECT_GT(tard.total_subtasks, 0);
    EXPECT_TRUE(tard.none_late());
    EXPECT_EQ(tard.max_ticks, 0);
  }
  EXPECT_LE(g_bytes.load() - before, kBudget);
}

TEST(BoundedMemory, HalfAndTinyWeightSfq) { expect_clean_sfq(kHalfAndTiny); }
TEST(BoundedMemory, HalfAndTinyWeightDvq) { expect_clean_dvq(kHalfAndTiny); }
TEST(BoundedMemory, HeavyAndTinyWeightSfq) {
  expect_clean_sfq(kHeavyAndTiny);
}
TEST(BoundedMemory, HeavyAndTinyWeightDvq) {
  expect_clean_dvq(kHeavyAndTiny);
}

}  // namespace
}  // namespace pfair
