// SIMD-vs-scalar property suite: the dispatching argmin8 kernel in
// core/simd.hpp must agree bit-for-bit with the scalar reference for
// every minimum position, on sentinel-padded child groups, on extreme
// values that straddle the signed/unsigned boundary (the AVX2 backend
// synthesizes unsigned compares from signed ones), and under the
// runtime force-scalar hook.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "core/simd.hpp"

namespace pfair {
namespace {

// Restores the force-scalar hook even when an assertion fires.
struct ScalarGuard {
  explicit ScalarGuard(bool v) { simd::set_force_scalar(v); }
  ~ScalarGuard() { simd::set_force_scalar(false); }
};

std::vector<std::uint64_t> random_keys(Rng& rng, std::size_t n,
                                       bool distinct) {
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix magnitudes: small, mid, and values with the top bit set.
    const std::uint64_t hi =
        static_cast<std::uint64_t>(rng.uniform(0, 3)) << 62;
    keys[i] = hi | static_cast<std::uint64_t>(rng.uniform(0, 1 << 30));
    if (distinct) keys[i] = (keys[i] & ~std::uint64_t{0xffff}) | i;
  }
  return keys;
}

TEST(Simd, Argmin8MatchesScalarForEveryMinPosition) {
  Rng rng(7);
  for (int rep = 0; rep < 64; ++rep) {
    std::vector<std::uint64_t> keys = random_keys(rng, 8, /*distinct=*/true);
    for (std::size_t pos = 0; pos < 8; ++pos) {
      std::vector<std::uint64_t> k = keys;
      k[pos] = 0;  // unique minimum at pos (distinct keys have low bits = i)
      ASSERT_EQ(simd::argmin8(k.data()), pos);
      ASSERT_EQ(simd::argmin8(k.data()), simd::argmin8_scalar(k.data()));
    }
  }
}

TEST(Simd, Argmin8HandlesSentinelPadding) {
  // The ready heap pads short child groups with ~0 sentinels; the
  // kernel must still pick the live minimum.
  for (std::size_t live = 1; live <= 8; ++live) {
    std::vector<std::uint64_t> keys(8, ~0ULL);
    for (std::size_t i = 0; i < live; ++i) {
      keys[i] = (1ULL << 62) + i * 17;
    }
    ASSERT_EQ(simd::argmin8(keys.data()), 0u) << "live=" << live;
    keys[live - 1] = 3;
    ASSERT_EQ(simd::argmin8(keys.data()), live - 1);
  }
}

TEST(Simd, ArgminExtremeValuesStraddleSignBit) {
  // 2^63 - 1 vs 2^63: a signed compare would order these backwards.
  const std::uint64_t keys[] = {1ULL << 63,       (1ULL << 63) - 1,
                                ~0ULL,            (1ULL << 63) + 1,
                                (1ULL << 62),     ~0ULL - 1,
                                (1ULL << 63) - 2, 1ULL};
  ASSERT_EQ(simd::argmin8(keys), 7u);
  ASSERT_EQ(simd::argmin8_scalar(keys), 7u);
  const std::uint64_t high_only[] = {1ULL << 63,       (1ULL << 63) + 5,
                                     (1ULL << 63) + 1, ~0ULL,
                                     (1ULL << 63) + 2, (1ULL << 63) + 9,
                                     (1ULL << 63) + 3, (1ULL << 63) + 4};
  ASSERT_EQ(simd::argmin8(high_only), 0u);
  ASSERT_EQ(simd::argmin8_scalar(high_only), 0u);
}

TEST(Simd, ForceScalarHookRoutesToScalarBackend) {
  const ScalarGuard guard(true);
  EXPECT_FALSE(simd::accelerated());
  Rng rng(99);
  const std::vector<std::uint64_t> keys =
      random_keys(rng, 8, /*distinct=*/true);
  EXPECT_EQ(simd::argmin8(keys.data()), simd::argmin8_scalar(keys.data()));
}

TEST(Simd, IsaNameMatchesCompiledBackend) {
#if defined(PFAIR_SIMD_AVX2)
  EXPECT_STREQ(simd::isa_name(), "avx2");
  EXPECT_TRUE(simd::accelerated());
#elif defined(PFAIR_SIMD_NEON)
  EXPECT_STREQ(simd::isa_name(), "neon");
  EXPECT_TRUE(simd::accelerated());
#else
  EXPECT_STREQ(simd::isa_name(), "scalar");
  EXPECT_FALSE(simd::accelerated());
#endif
}

}  // namespace
}  // namespace pfair
