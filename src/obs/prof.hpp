// Self-profiling span layer: hierarchical RAII timing spans over a
// TSC-based clock, accumulated per phase and per thread.
//
// Design mirrors SchedProbe's zero-cost-when-off contract:
//   * compiled out entirely under -DPFAIR_NO_PROF (PFAIR_PROF_SPAN
//     expands to nothing);
//   * when compiled in but no profiler is installed on the thread, a
//     span is one thread-local pointer load and a predictable branch —
//     no clock read, no allocation;
//   * when a `ProfScope` has installed a `Profiler`, each span costs two
//     TSC reads plus a ring-buffer store on close.
//
// Spans nest: every span accumulates into its phase's {count, total,
// self} triple, where self excludes time spent in child spans (totals
// telescope, so the sum of self times over all phases equals the sum of
// top-level span durations — the "attributed" time a breakdown reports
// against wall clock).  Closed spans additionally land in a bounded
// per-thread ring (newest kept, drops counted) for timeline export
// (io/export.hpp renders them as Chrome trace `ph:"X"` events).
//
// The clock is the raw TSC on x86-64 (constant-rate on every CPU this
// project targets), calibrated once against steady_clock when a
// snapshot first needs nanoseconds; elsewhere it falls back to
// steady_clock directly (ns_per_tick == 1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define PFAIR_PROF_CLOCK_TSC 1
#endif

namespace pfair {
class MetricsRegistry;  // obs/metrics.hpp
}

namespace pfair::prof {

/// The phases a run decomposes into.  Fine-grained phases (construction
/// through warp) are emitted by the library itself; coarse phases
/// (parse, simulate, analysis, render, export) are the caller's job
/// (tools/pfairsim.cpp, bench/bench_main.cpp), which keeps same-phase
/// spans from nesting across layers.
enum class Phase : std::uint8_t {
  kParse = 0,       ///< task-file parsing / scenario building
  kConstruction,    ///< task-system + simulator structure building
  kKeyPrecompute,   ///< packed 64-bit priority key tables
  kSimulate,        ///< a whole scheduling run (driver-level)
  kCalendarWalk,    ///< SFQ availability-calendar drain (per slot)
  kReadyHeap,       ///< SFQ ready-heap pops + placements of one slot
  kDvqEvents,       ///< DVQ event loop (retire + drain + dispatch); one
                    ///< span per run_until — a DVQ event is a few
                    ///< hundred ns, too fine for per-event clock reads
  kFingerprint,     ///< cycle-detect state fingerprint probes
  kWarp,            ///< cycle fast-forward counter jumps
  kAnalysis,        ///< validity / tardiness / recounts
  kRender,          ///< text/SVG rendering
  kExport,          ///< CSV / JSON / trace serialization
};
inline constexpr int kNumPhases = 12;

[[nodiscard]] const char* to_string(Phase p);

/// Raw profiling clock.  Ticks are only comparable within one process.
#if defined(PFAIR_PROF_CLOCK_TSC)
[[nodiscard]] inline std::uint64_t clock_now() noexcept { return __rdtsc(); }
#else
[[nodiscard]] std::uint64_t clock_now() noexcept;
#endif
/// Nanoseconds per clock tick, calibrated once against steady_clock on
/// first use (a few milliseconds, off the hot path).
[[nodiscard]] double ns_per_tick();
/// "tsc" or "steady_clock".
[[nodiscard]] const char* clock_name() noexcept;

/// One closed span, as kept in the per-thread ring.
struct SpanRecord {
  Phase phase{};
  std::uint16_t depth = 0;    ///< 0 = top-level
  std::uint32_t thread = 0;   ///< dense per-profiler thread index
  std::uint64_t start_ticks = 0;  ///< relative to the profiler's epoch
  std::uint64_t dur_ticks = 0;
};

/// Deterministic merged view of a profiler (take it after the profiled
/// region; accumulation is not synchronized against open spans).
struct ProfileSnapshot {
  std::string clock;
  double ns_per_tick = 1.0;
  int threads = 0;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;  ///< overwritten in the rings

  struct PhaseEntry {
    Phase phase{};
    std::int64_t count = 0;
    std::int64_t total_ticks = 0;
    std::int64_t self_ticks = 0;  ///< total minus time in child spans
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::vector<PhaseEntry> phases;  ///< nonzero phases, ascending enum order
  std::vector<SpanRecord> spans;   ///< merged rings, by start tick

  /// Sum of self_ns over all phases == total duration of top-level spans.
  [[nodiscard]] double attributed_ns() const;
  [[nodiscard]] const PhaseEntry* find(Phase p) const;
  /// Human-readable per-phase breakdown table.
  [[nodiscard]] std::string table() const;
};

/// JSON object for the pfair-bench-v1 "profile" section and the
/// pfairstat differ: {clock, ns_per_tick, spans_*, phases: {name:
/// {count, total_ns, self_ns}}}.
[[nodiscard]] std::string profile_to_json(const ProfileSnapshot& snap,
                                          int indent = 0);

/// Publishes the snapshot as prof.<phase>.{count,total_ns,self_ns}
/// counters so one metrics exposition (JSON or Prometheus) carries the
/// profile too.
void publish_profile(const ProfileSnapshot& snap, MetricsRegistry& reg);

namespace detail {
struct ThreadState;
/// Non-null while a ProfScope is live on this thread.  `constinit`
/// tells other translation units there is no dynamic initializer, so
/// reads are direct TLS loads — no TLS wrapper call, which GCC's UBSan
/// misreports as a null load in static-library builds.
extern thread_local constinit ThreadState* tl_state;
}  // namespace detail

/// True iff spans on this thread currently record anywhere.
[[nodiscard]] inline bool active() noexcept {
  return detail::tl_state != nullptr;
}

/// Owner of the per-thread accumulation state.  Create one per profiled
/// run, install it with ProfScope, snapshot() at the end.  Thread-safe:
/// each participating thread gets its own state on first ProfScope.
class Profiler {
 public:
  /// `ring_capacity` bounds the span timeline kept per thread (the
  /// per-phase accumulators are exact regardless).
  explicit Profiler(std::size_t ring_capacity = std::size_t{1} << 14);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  [[nodiscard]] ProfileSnapshot snapshot() const;

 private:
  friend class ProfScope;
  [[nodiscard]] detail::ThreadState* state_for_current_thread();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<detail::ThreadState>> states_;
  std::size_t ring_capacity_;
  std::uint64_t epoch_;
};

/// RAII installer: while alive, spans on the constructing thread record
/// into `p`.  A null profiler *suspends* recording (any outer
/// installation resumes on destruction) — how the scaling bench times
/// its spans-off baseline under an active --profile.  Scopes may nest
/// and must be destroyed in LIFO order on the thread that created them.
class ProfScope {
 public:
  explicit ProfScope(Profiler* p);
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  detail::ThreadState* prev_;
  bool installed_;
};

/// One hierarchical timing span.  Constructing against an inactive
/// thread is one pointer load; the profiler (if any) must outlive the
/// span.
class Span {
 public:
  explicit Span(Phase phase) noexcept : st_(detail::tl_state) {
    if (st_ == nullptr) [[likely]] {
      return;
    }
    begin(phase);
  }
  ~Span() {
    if (st_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(Phase phase) noexcept;  // prof.cpp — needs ThreadState
  void end() noexcept;

  detail::ThreadState* st_;
  Span* parent_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t child_ticks_ = 0;
  Phase phase_{};

  friend struct detail::ThreadState;
};

}  // namespace pfair::prof

// Span convenience macro: `PFAIR_PROF_SPAN(kSimulate);` opens a span
// for the rest of the enclosing scope.  Compiles out entirely under
// -DPFAIR_NO_PROF (the acceptance path for "compile-out-to-zero").
#if defined(PFAIR_NO_PROF)
#define PFAIR_PROF_SPAN(phase) ((void)0)
#else
#define PFAIR_PROF_SPAN_CAT2(a, b) a##b
#define PFAIR_PROF_SPAN_CAT(a, b) PFAIR_PROF_SPAN_CAT2(a, b)
#define PFAIR_PROF_SPAN(phase)                       \
  const ::pfair::prof::Span PFAIR_PROF_SPAN_CAT(     \
      pfair_prof_span_, __LINE__) {                  \
    ::pfair::prof::Phase::phase                      \
  }
#endif
