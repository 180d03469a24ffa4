#include "core/rng.hpp"

namespace pfair {

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  PFAIR_REQUIRE(lo <= hi, "uniform(" << lo << ", " << hi << ")");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to avoid modulo bias.  A power-of-two span (a
  // coin flip, the yield models' cost ranges) takes the same draws with
  // a mask in place of both divisions: UINT64_MAX % 2^k == 2^k - 1.
  const bool pow2 = (span & (span - 1)) == 0;
  const std::uint64_t limit =
      UINT64_MAX - (pow2 ? span - 1 : UINT64_MAX % span);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return lo + static_cast<std::int64_t>(pow2 ? x & (span - 1) : x % span);
}

bool Rng::chance(std::int64_t num, std::int64_t den) {
  PFAIR_REQUIRE(den > 0 && num >= 0 && num <= den,
                "chance(" << num << "/" << den << ")");
  if (num == 0) return false;
  if (num == den) return true;
  return uniform(1, den) <= num;
}

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace pfair
