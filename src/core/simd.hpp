// Portable SIMD shim for the scheduler's data-oriented hot paths.
//
// Exactly the kernel the hot paths need — argmin over one 8-key child
// group of the 8-ary ready heap — with three backends:
//
//   * AVX2   (x86-64): 4 x u64 lanes; unsigned 64-bit compares are
//             synthesized by flipping the sign bit before a signed
//             compare.
//   * NEON   (aarch64): 2 x u64 lanes.
//   * scalar: plain loops, always compiled, on every platform.
//
// Backend selection is a compile-time decision (`-DPFAIR_NO_SIMD`
// forces scalar); on top of that, `set_force_scalar(true)` is a
// runtime test hook that makes every dispatching kernel take the
// scalar implementation, so A/B suites can cross-check both shims in
// one binary regardless of how the build was configured.
//
// Semantics are exact and backend-independent: the argmin kernel
// returns the lowest index holding the minimum **provided keys are
// pairwise distinct** (the packed-key
// construction guarantees distinctness; with duplicated minima the
// accelerated backends may prefer a different duplicate).  The
// SIMD-vs-scalar property suite (tests/simd_test.cpp) pins the
// equivalence for every minimum position and on sign-bit extremes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#if !defined(PFAIR_NO_SIMD) && defined(__AVX2__)
#define PFAIR_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(PFAIR_NO_SIMD) && defined(__aarch64__) && \
    (defined(__ARM_NEON) || defined(__ARM_NEON__))
#define PFAIR_SIMD_NEON 1
#include <arm_neon.h>
#else
#define PFAIR_SIMD_SCALAR 1
#endif

namespace pfair::simd {

/// The instruction set the accelerated kernels were compiled for.
[[nodiscard]] constexpr const char* isa_name() {
#if defined(PFAIR_SIMD_AVX2)
  return "avx2";
#elif defined(PFAIR_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

namespace detail {
inline std::atomic<bool> g_force_scalar{false};
}  // namespace detail

/// Runtime test hook: route every dispatching kernel to the scalar
/// implementation.  Process-wide; intended for A/B equivalence tests
/// and the scalar-vs-SIMD legs of bench_scaling, not for concurrent
/// toggling mid-run.
inline void set_force_scalar(bool v) {
  detail::g_force_scalar.store(v, std::memory_order_relaxed);
}
[[nodiscard]] inline bool force_scalar() {
  return detail::g_force_scalar.load(std::memory_order_relaxed);
}
/// True iff the dispatching kernels currently run accelerated code.
[[nodiscard]] inline bool accelerated() {
#if defined(PFAIR_SIMD_SCALAR)
  return false;
#else
  return !force_scalar();
#endif
}

// ---------------------------------------------------------------------------
// Scalar reference kernels — always compiled, the semantic ground truth.
// ---------------------------------------------------------------------------

/// Index of the minimum of exactly 8 contiguous keys (callers pad with
/// ~0ull); lowest index wins ties.
inline std::size_t argmin8_scalar(const std::uint64_t* keys) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < 8; ++i) {
    if (keys[i] < keys[best]) best = i;
  }
  return best;
}

// ---------------------------------------------------------------------------
// AVX2 backend
// ---------------------------------------------------------------------------
#if defined(PFAIR_SIMD_AVX2)

namespace detail {

inline __m256i flip_sign(__m256i v) {
  return _mm256_xor_si256(v, _mm256_set1_epi64x(
                                 static_cast<long long>(0x8000000000000000ULL)));
}

/// Lane-wise unsigned min of (a, b) that keeps `a` on ties, plus the
/// matching index blend: where b < a take (b, bi), else keep (a, ai).
struct MinIdx {
  __m256i val;
  __m256i idx;
};
inline MinIdx min_keep_first(__m256i a, __m256i ai, __m256i b, __m256i bi) {
  const __m256i lt = _mm256_cmpgt_epi64(flip_sign(a), flip_sign(b));  // b < a
  return MinIdx{_mm256_blendv_epi8(a, b, lt), _mm256_blendv_epi8(ai, bi, lt)};
}

}  // namespace detail

inline std::size_t argmin8_avx2(const std::uint64_t* keys) {
  using detail::min_keep_first;
  const __m256i v0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
  const __m256i v1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + 4));
  // (0..3) vs (4..7): ties keep the lower index by construction.
  detail::MinIdx m = min_keep_first(v0, _mm256_set_epi64x(3, 2, 1, 0), v1,
                                    _mm256_set_epi64x(7, 6, 5, 4));
  // Cross 128-bit halves, then adjacent lanes.  Each step's first
  // operand holds the candidate from the lower original lane, so a
  // distinct minimum always reports its exact index.
  const __m256i vs = _mm256_permute4x64_epi64(m.val, 0b01001110);
  const __m256i is = _mm256_permute4x64_epi64(m.idx, 0b01001110);
  m = min_keep_first(m.val, m.idx, vs, is);
  const __m256i vs2 = _mm256_permute4x64_epi64(m.val, 0b10110001);
  const __m256i is2 = _mm256_permute4x64_epi64(m.idx, 0b10110001);
  m = min_keep_first(m.val, m.idx, vs2, is2);
  return static_cast<std::size_t>(_mm256_extract_epi64(m.idx, 0));
}

#endif  // PFAIR_SIMD_AVX2

// ---------------------------------------------------------------------------
// NEON backend (aarch64): 2 x u64 lanes.
// ---------------------------------------------------------------------------
#if defined(PFAIR_SIMD_NEON)

namespace detail {
struct MinIdx2 {
  uint64x2_t val;
  uint64x2_t idx;
};
/// Lane-wise unsigned min keeping `a` on ties.
inline MinIdx2 min_keep_first(uint64x2_t a, uint64x2_t ai, uint64x2_t b,
                              uint64x2_t bi) {
  const uint64x2_t lt = vcltq_u64(b, a);  // b < a
  return MinIdx2{vbslq_u64(lt, b, a), vbslq_u64(lt, bi, ai)};
}
}  // namespace detail

inline std::size_t argmin8_neon(const std::uint64_t* keys) {
  using detail::min_keep_first;
  const uint64x2_t i01 = {0, 1}, i23 = {2, 3}, i45 = {4, 5}, i67 = {6, 7};
  detail::MinIdx2 lo = min_keep_first(vld1q_u64(keys), i01,
                                      vld1q_u64(keys + 2), i23);
  detail::MinIdx2 hi = min_keep_first(vld1q_u64(keys + 4), i45,
                                      vld1q_u64(keys + 6), i67);
  const detail::MinIdx2 m = min_keep_first(lo.val, lo.idx, hi.val, hi.idx);
  const std::uint64_t k0 = vgetq_lane_u64(m.val, 0);
  const std::uint64_t k1 = vgetq_lane_u64(m.val, 1);
  if (k1 < k0) return static_cast<std::size_t>(vgetq_lane_u64(m.idx, 1));
  return static_cast<std::size_t>(vgetq_lane_u64(m.idx, 0));
}

#endif  // PFAIR_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatching entry points — the names the hot paths call.
// ---------------------------------------------------------------------------

inline std::size_t argmin8(const std::uint64_t* keys) {
#if defined(PFAIR_SIMD_AVX2)
  if (!force_scalar()) return argmin8_avx2(keys);
#elif defined(PFAIR_SIMD_NEON)
  if (!force_scalar()) return argmin8_neon(keys);
#endif
  return argmin8_scalar(keys);
}

/// Best-effort cache-line prefetch (read intent); a no-op where the
/// builtin is unavailable.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

}  // namespace pfair::simd
