// Unit tests for src/core: contracts, rationals, time, RNG, stats, pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <utility>

#include "core/assert.hpp"
#include "core/rational.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "core/time.hpp"

namespace pfair {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Contracts, AssertThrowsContractViolation) {
  EXPECT_THROW(PFAIR_ASSERT(1 == 2), ContractViolation);
  EXPECT_NO_THROW(PFAIR_ASSERT(1 == 1));
}

TEST(Contracts, RequireCarriesMessage) {
  try {
    PFAIR_REQUIRE(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// ---------------------------------------------------------------- rationals

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
  const Rational neg(3, -9);
  EXPECT_EQ(neg.num(), -1);
  EXPECT_EQ(neg.den(), 3);
  const Rational zero(0, 7);
  EXPECT_EQ(zero.num(), 0);
  EXPECT_EQ(zero.den(), 1);
}

TEST(Rational, RejectsZeroDenominator) {
  EXPECT_THROW(Rational(1, 0), ContractViolation);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(Rational, DivisionByZeroRejected) {
  EXPECT_THROW(Rational(1, 2) / Rational(0), ContractViolation);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(7, 8), Rational(6, 7));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6).floor(), 6);
  EXPECT_EQ(Rational(6).ceil(), 6);
}

TEST(Rational, LargeIntermediatesDoNotOverflow) {
  // (2^40/3) * (3/2^40) must reduce through 128-bit intermediates.
  const std::int64_t big = std::int64_t{1} << 40;
  EXPECT_EQ(Rational(big, 3) * Rational(3, big), Rational(1));
  EXPECT_EQ(Rational(big, 7) + Rational(-big, 7), Rational(0));
}

TEST(Rational, Str) {
  EXPECT_EQ(Rational(3, 4).str(), "3/4");
  EXPECT_EQ(Rational(5).str(), "5");
}

TEST(Rational, FloorCeilDivMul) {
  EXPECT_EQ(floor_div_mul(7, 3, 4), 5);   // 21/4 = 5.25
  EXPECT_EQ(ceil_div_mul(7, 3, 4), 6);
  EXPECT_EQ(floor_div_mul(-7, 3, 4), -6);  // -5.25 -> -6
  EXPECT_EQ(ceil_div_mul(-7, 3, 4), -5);
  EXPECT_EQ(floor_div_mul(8, 3, 4), 6);   // exact
  EXPECT_EQ(ceil_div_mul(8, 3, 4), 6);
}

// --------------------------------------------------------------------- time

TEST(Time, SlotConstruction) {
  EXPECT_EQ(Time::slots(3).raw_ticks(), 3 * kTicksPerSlot);
  EXPECT_EQ(Time::slots(3).slot_floor(), 3);
  EXPECT_TRUE(Time::slots(3).is_slot_boundary());
}

TEST(Time, FractionalConstruction) {
  const Time t = Time::slots_frac(2, 1, 2);
  EXPECT_EQ(t.raw_ticks(), 2 * kTicksPerSlot + kTicksPerSlot / 2);
  EXPECT_EQ(t.slot_floor(), 2);
  EXPECT_EQ(t.slot_ceil(), 3);
  EXPECT_FALSE(t.is_slot_boundary());
}

TEST(Time, UnrepresentableFractionRejected) {
  EXPECT_THROW((void)Time::slots_frac(0, 1, 3), ContractViolation);
}

TEST(Time, Arithmetic) {
  EXPECT_EQ(Time::slots(1) + Time::slots(2), Time::slots(3));
  EXPECT_EQ(kQuantum - kTick,
            Time::ticks(kTicksPerSlot - 1));
  EXPECT_LT(kQuantum - kTick, kQuantum);
}

TEST(Time, NegativeFloorCeil) {
  const Time t = Time::ticks(-1);
  EXPECT_EQ(t.slot_floor(), -1);
  EXPECT_EQ(t.slot_ceil(), 0);
}

TEST(Time, Str) {
  EXPECT_EQ(Time::slots(5).str(), "5");
  EXPECT_EQ((Time::slots(5) + kTick).str(), "5+1/2^20");
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_seed_mismatch = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    if (va != b.next_u64()) all_equal = false;
    if (va != c.next_u64()) any_diff_seed_mismatch = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_mismatch);
}

TEST(Rng, UniformInRangeAndCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformDegenerate) {
  Rng rng(9);
  EXPECT_EQ(rng.uniform(5, 5), 5);
  EXPECT_THROW(rng.uniform(6, 5), ContractViolation);
}

// uniform() takes a division-free path for power-of-two spans; every
// span must draw exactly what the plain modulo-rejection rule draws from
// the same generator state.
TEST(Rng, UniformMatchesTheModuloRejectionRule) {
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0},           {1, 2},           {-4, 3},        {5, 9},
      {1, 6},           {524288, 1048575}, {0, (std::int64_t{1} << 40) - 1},
      {0, INT64_MAX},   {-7, 1000003}};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& [lo, hi] : ranges) {
      Rng rng(seed), twin(seed);
      const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
      for (int i = 0; i < 200; ++i) {
        std::uint64_t x;
        do {
          x = twin.next_u64();
        } while (x >= UINT64_MAX - UINT64_MAX % span);
        ASSERT_EQ(rng.uniform(lo, hi), lo + static_cast<std::int64_t>(x % span))
            << "seed " << seed << " [" << lo << ", " << hi << "] draw " << i;
      }
    }
  }
}

TEST(Rng, ChanceEdges) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
  EXPECT_THROW(rng.chance(11, 10), ContractViolation);
}

TEST(Rng, ChanceFrequencyRoughlyCorrect) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(1, 4)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// -------------------------------------------------------------------- stats

TEST(Stats, StreamingBasics) {
  StreamingStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Stats, MergeMatchesSequential) {
  StreamingStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, EmptyAccessorsThrow) {
  const StreamingStats s;
  EXPECT_THROW((void)s.mean(), ContractViolation);
  EXPECT_THROW((void)s.min(), ContractViolation);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_THROW((void)percentile({}, 50), ContractViolation);
}

TEST(Stats, MaxTracker) {
  MaxTracker m;
  EXPECT_FALSE(m.seen());
  EXPECT_THROW((void)m.max(), ContractViolation);
  m.add(-5);
  m.add(3);
  m.add(1);
  EXPECT_EQ(m.max(), 3);
}

// -------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GrainAndEmptyRange) {
  ThreadPool pool(2);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(
      10, 60, [&](std::int64_t i) { sum.fetch_add(i); }, 7);
  EXPECT_EQ(sum.load(), (10 + 59) * 50 / 2);
  pool.parallel_for(5, 5, [&](std::int64_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::int64_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(0, 50, [&](std::int64_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 50);
  }
}

}  // namespace
}  // namespace pfair
