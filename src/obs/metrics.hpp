// Per-run metrics registry: named counters, gauges and log2-bucketed
// histograms with cheap thread-striped accumulation.
//
// The registry is the write-side; reads go through `snapshot()`, which
// sums the stripes into a plain, deterministic `MetricsSnapshot` (JSON
// serialization lives in io/json.hpp).  Handles returned by
// `counter()` / `gauge()` / `histogram()` are stable for the lifetime
// of the registry, so hot paths resolve names once and then touch only
// a relaxed atomic per update — safe under `core/thread_pool`'s
// parallel sweeps, where many workers bump the same counters.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pfair {

namespace detail {
/// Stripe index of the calling thread (stable per thread, cheap).
[[nodiscard]] std::size_t metrics_stripe();
inline constexpr std::size_t kMetricsStripes = 8;
}  // namespace detail

/// Monotonic counter, striped across cache lines to keep concurrent
/// writers from bouncing one atomic.
class Counter {
 public:
  void add(std::int64_t d = 1) noexcept {
    stripes_[detail::metrics_stripe()].v.fetch_add(
        d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t s = 0;
    for (const Stripe& st : stripes_) {
      s += st.v.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Stripe, detail::kMetricsStripes> stripes_;
};

/// Last-writer-wins instantaneous value (plus a max-tracking helper).
class Gauge {
 public:
  void set(std::int64_t x) noexcept {
    v_.store(x, std::memory_order_relaxed);
  }
  void set_max(std::int64_t x) noexcept;
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram over nonnegative int64 samples.  Bucket b
/// holds samples with bit-width b (bucket 0: x <= 0); exact count, sum,
/// min and max are kept alongside the buckets.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void add(std::int64_t x) noexcept;
  /// Adds `n` >= 0 samples of value `x` — one update for a batch.
  void add_repeated(std::int64_t x, std::int64_t n) noexcept;
  /// Folds `other`'s samples into this histogram.  Lock-free and safe
  /// against concurrent add()s on either side; associative and
  /// commutative over the resulting (count, sum, min, max, buckets).
  void merge_from(const Histogram& other) noexcept;

  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Defined only when count() > 0.
  [[nodiscard]] std::int64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t bucket(int b) const noexcept {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

 private:
  void shrink_min(std::int64_t x) noexcept;
  void grow_max(std::int64_t x) noexcept;

  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  // Sentinel-initialized so min/max updates are a bare CAS loop with no
  // "first sample" special case — that keeps merge_from lock-free too.
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

/// Plain-data view of one histogram at snapshot time.
struct HistogramSnapshot {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  /// (bucket index, count) for nonzero buckets, ascending.
  std::vector<std::pair<int, std::int64_t>> buckets;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Approximate q-quantile (q in [0,1]): walks the cumulative bucket
  /// counts and interpolates linearly inside the target bucket's value
  /// range, clamped to [min, max].  Exact at the extremes (quantile(0)
  /// == min, quantile(1) == max); 0 when empty.
  [[nodiscard]] double quantile(double q) const;
};

/// Deterministic point-in-time copy of a registry.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] std::int64_t counter_or(const std::string& name,
                                        std::int64_t fallback = 0) const {
    const auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
  }
};

/// Owner of named metrics.  Registration (first lookup of a name) takes
/// a mutex; subsequent updates through the returned handle are
/// lock-free.  The registry must outlive every handle.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Wall-clock scope timer: records elapsed nanoseconds into a histogram
/// on destruction.  Construct with nullptr to disable at zero cost.
class ScopeTimer {
 public:
  explicit ScopeTimer(Histogram* h)
      : h_(h),
        start_(h == nullptr ? std::chrono::steady_clock::time_point{}
                            : std::chrono::steady_clock::now()) {}
  /// Resolves "<name>" as a histogram of nanoseconds in `reg`.
  ScopeTimer(MetricsRegistry& reg, std::string_view name)
      : ScopeTimer(&reg.histogram(name)) {}

  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

  ~ScopeTimer() {
    if (h_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    h_->add(ns.count());
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pfair
