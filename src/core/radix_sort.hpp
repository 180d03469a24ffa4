// Stable LSD radix sort by a 64-bit integer key, for the O(N) offline
// passes (analysis/recount, analysis/validity).  Keys are rebased on
// their minimum, and only the bytes that vary across the input get a
// pass — tick times of a short schedule span ~27 bits, so a sort is
// three or four counting passes over the data plus one O(N) scratch
// buffer.
//
// Below kRadixSortMin elements a comparison sort is cheaper than the
// per-pass histogram setup; sort_by_key then uses std::sort with the
// caller's order, which must compare the key first.  Equal-key elements
// may then come out in another order than the stable radix branch
// leaves them, so a caller whose result must not depend on the
// threshold either makes `less` reproduce insertion order or reads
// equal-key runs in an order-independent way.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace pfair {

inline constexpr std::size_t kRadixSortMin = 1024;

/// Stable LSD radix sort of `v` ascending by `key(x)` (an int64).
/// `scratch` is grown to at least v.size() and left in an unspecified
/// state.  `v` is any contiguous range (a vector, or a slice of one).
template <class T, class Key>
void radix_sort_by_key(std::type_identity_t<std::span<T>> v,
                       std::vector<T>& scratch, Key key) {
  const std::size_t n = v.size();
  if (n < 2) return;
  std::int64_t lo = key(v[0]);
  std::int64_t hi = lo;
  for (const T& x : v) {
    const std::int64_t k = key(x);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  // Rebased keys lie in [0, hi - lo]; unsigned wrap-around makes the
  // subtraction exact for any int64 pair.
  const auto base = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - base;
  std::size_t passes = 0;
  while (passes < 8 && (range >> (8 * passes)) != 0) ++passes;
  if (passes == 0) return;  // all keys equal: already sorted

  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (const T& x : v) {
    const std::uint64_t k = static_cast<std::uint64_t>(key(x)) - base;
    for (std::size_t p = 0; p < passes; ++p) ++counts[p][(k >> (8 * p)) & 0xff];
  }
  if (scratch.size() < n) scratch.resize(n);
  T* src = v.data();
  T* dst = scratch.data();
  for (std::size_t p = 0; p < passes; ++p) {
    std::array<std::size_t, 256>& c = counts[p];
    // A byte every key shares moves nothing.
    if (std::any_of(c.begin(), c.end(),
                    [n](std::size_t b) { return b == n; })) {
      continue;
    }
    std::size_t sum = 0;
    for (std::size_t& b : c) {
      const std::size_t here = b;
      b = sum;
      sum += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = static_cast<std::uint64_t>(key(src[i])) - base;
      dst[c[(k >> (8 * p)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

/// Sorts `v` ascending by `key(x)`: radix sort from kRadixSortMin
/// elements up, std::sort with `less` (a total order, key first) below.
template <class T, class Key, class Less>
void sort_by_key(std::type_identity_t<std::span<T>> v,
                 std::vector<T>& scratch, Key key, Less less) {
  if (v.size() < kRadixSortMin) {
    std::sort(v.begin(), v.end(), less);
  } else {
    radix_sort_by_key<T>(v, scratch, key);
  }
}

/// Sorts int64 values ascending (same threshold rule).
inline void sort_int64(std::vector<std::int64_t>& v,
                       std::vector<std::int64_t>& scratch) {
  sort_by_key(
      v, scratch, [](std::int64_t x) { return x; },
      [](std::int64_t a, std::int64_t b) { return a < b; });
}

}  // namespace pfair
