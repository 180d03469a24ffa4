#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace pfair {

namespace detail {

std::size_t metrics_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricsStripes;
  return stripe;
}

}  // namespace detail

void Gauge::set_max(std::int64_t x) noexcept {
  std::int64_t cur = v_.load(std::memory_order_relaxed);
  while (x > cur &&
         !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void Histogram::shrink_min(std::int64_t x) noexcept {
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (x < cur &&
         !min_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void Histogram::grow_max(std::int64_t x) noexcept {
  std::int64_t cur = max_.load(std::memory_order_relaxed);
  while (x > cur &&
         !max_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void Histogram::add(std::int64_t x) noexcept {
  const int b = bucket_of(x);
  buckets_[static_cast<std::size_t>(b)].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  shrink_min(x);
  grow_max(x);
}

void Histogram::add_repeated(std::int64_t x, std::int64_t n) noexcept {
  if (n <= 0) return;
  const int b = bucket_of(x);
  buckets_[static_cast<std::size_t>(b)].fetch_add(
      n, std::memory_order_relaxed);
  sum_.fetch_add(x * n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  shrink_min(x);
  grow_max(x);
}

void Histogram::merge_from(const Histogram& other) noexcept {
  std::int64_t n = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t c =
        other.buckets_[static_cast<std::size_t>(b)].load(
            std::memory_order_relaxed);
    if (c == 0) continue;
    buckets_[static_cast<std::size_t>(b)].fetch_add(
        c, std::memory_order_relaxed);
    n += c;
  }
  // Derive the merged count from the bucket transfer rather than
  // other.count(): under a concurrent add() on `other` the two can
  // disagree transiently, and buckets are what quantile() consumes.
  if (n != 0) count_.fetch_add(n, std::memory_order_relaxed);
  const std::int64_t s = other.sum_.load(std::memory_order_relaxed);
  if (s != 0) sum_.fetch_add(s, std::memory_order_relaxed);
  // Sentinels make empty-source merges a no-op for min/max.
  shrink_min(other.min_.load(std::memory_order_relaxed));
  grow_max(other.max_.load(std::memory_order_relaxed));
}

void Histogram::merge_from(const HistogramBatch& batch) noexcept {
  if (batch.empty()) return;
  // Samples lie in the buckets of [min, max]; a batch of one decision's
  // samples usually touches one bucket.
  for (int b = bucket_of(batch.min_); b <= bucket_of(batch.max_); ++b) {
    const std::int64_t c = batch.buckets_[static_cast<std::size_t>(b)];
    if (c != 0) {
      buckets_[static_cast<std::size_t>(b)].fetch_add(
          c, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(batch.count_, std::memory_order_relaxed);
  sum_.fetch_add(batch.sum_, std::memory_order_relaxed);
  shrink_min(batch.min_);
  grow_max(batch.max_);
}

double HistogramSnapshot::quantile(double q) const {
  if (count <= 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (const auto& [b, n] : buckets) {
    const double prev = cum;
    cum += static_cast<double>(n);
    if (cum < rank) continue;
    // Bucket b covers bit-width-b values [2^(b-1), 2^b - 1]; bucket 0
    // is everything <= 0.  Interpolate by rank inside that range, then
    // clamp so the estimate never escapes the observed [min, max].
    const double lo = b == 0 ? static_cast<double>(min)
                             : std::ldexp(1.0, b - 1);
    const double hi = b == 0 ? 0.0 : std::ldexp(1.0, b) - 1.0;
    const double frac = (rank - prev) / static_cast<double>(n);
    return std::clamp(lo + frac * (hi - lo), static_cast<double>(min),
                      static_cast<double>(max));
  }
  return static_cast<double>(max);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    if (hs.count > 0) {
      hs.min = h->min();
      hs.max = h->max();
    }
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::int64_t n = h->bucket(b);
      if (n != 0) hs.buckets.emplace_back(b, n);
    }
    snap.histograms.emplace(name, std::move(hs));
  }
  return snap;
}

}  // namespace pfair
