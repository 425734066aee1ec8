#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

namespace tveg::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Atomic min/max via CAS (no fetch_min for doubles).
void atomic_min(std::atomic<double>& target, double x) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (x < cur &&
         !target.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double x) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (x > cur &&
         !target.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t Counter::shard_index() noexcept {
  // A stable small per-thread index; hashing the thread id spreads threads
  // over shards well enough, and collisions only cost contention.
  thread_local const std::size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return index;
}

Histogram::Histogram() : min_(kInf), max_(-kInf) {}

std::size_t Histogram::bucket_index(double x) noexcept {
  if (!(x > 0) || !std::isfinite(x)) return 0;  // <=0 and nan land in [0]
  const double idx =
      std::floor(std::log2(x) * kSubBucketsPerOctave) + kBuckets / 2.0;
  if (idx < 1) return 1;
  if (idx > static_cast<double>(kBuckets - 1))
    return kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double Histogram::bucket_lower(std::size_t i) noexcept {
  return std::exp2((static_cast<double>(i) - kBuckets / 2.0) /
                   kSubBucketsPerOctave);
}

void Histogram::observe(double x) noexcept {
  buckets_[bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(x)) {
    sum_.fetch_add(x, std::memory_order_relaxed);
    atomic_min(min_, x);
    atomic_max(max_, x);
  }
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  return min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

Histogram::Buckets Histogram::load_buckets() const noexcept {
  Buckets b;
  for (std::size_t i = 0; i < kBuckets; ++i)
    b[i] = buckets_[i].load(std::memory_order_relaxed);
  return b;
}

double Histogram::quantile_of(const Buckets& buckets, double q, double lo,
                              double hi) noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t c : buckets) n += c;
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based), then walk buckets.
  const double rank = q * static_cast<double>(n - 1) + 1.0;
  std::uint64_t seen = 0;
  double estimate = hi;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= rank) {
      if (i == 0) {
        estimate = 0.0;  // the <=0 bucket
      } else {
        // Linear interpolation inside the geometric bucket.
        const double b_lo = bucket_lower(i);
        const double b_hi = bucket_lower(i + 1);
        const double frac =
            (rank - static_cast<double>(seen)) / static_cast<double>(c);
        estimate = b_lo + (b_hi - b_lo) * std::clamp(frac, 0.0, 1.0);
      }
      break;
    }
    seen += c;
  }
  // A racing reset() can momentarily leave min > max; std::clamp with an
  // inverted range is UB, so only clamp when the bounds are sane.
  return lo <= hi ? std::clamp(estimate, lo, hi) : estimate;
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot s;
  s.count = count();
  if (s.count == 0) return s;
  s.sum = sum();
  s.min = min();
  s.max = max();
  // One read of the buckets serves every quantile, each clamped to this
  // snapshot's own [min, max]: a racing observe() can then never push a
  // quantile past the max reported beside it.
  const Buckets buckets = load_buckets();
  s.p50 = quantile_of(buckets, 0.50, s.min, s.max);
  s.p90 = quantile_of(buckets, 0.90, s.min, s.max);
  s.p95 = quantile_of(buckets, 0.95, s.min, s.max);
  s.p99 = quantile_of(buckets, 0.99, s.min, s.max);
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  support::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  support::MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  support::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::reset() {
  support::MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  support::MutexLock lock(mutex_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_)
    s.histograms.emplace_back(name, h->snapshot());
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace tveg::obs
