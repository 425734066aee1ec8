// Metrics registry: named counters, gauges and histograms with cheap
// thread-safe updates.
//
// Design constraints (see DESIGN.md "Observability"):
//  * updates must be safe from ThreadPool workers and cost a handful of
//    nanoseconds — counters are sharded cache-line-padded atomics, gauges
//    and histogram cells are single atomics;
//  * registration (name lookup) takes a mutex, so hot paths cache the
//    returned reference once:
//        static obs::Counter& c =
//            obs::MetricsRegistry::global().counter("tveg.foo.bar");
//    references stay valid for the registry's lifetime;
//  * metric names follow `tveg.<subsystem>.<metric>` (dot-separated,
//    lower_snake per segment).
//
// Counters/gauges/histograms are always live (no enabled check): an
// uncontended relaxed atomic add is too cheap to be worth a branch.
// Anything needing clock or /proc reads is gated behind obs::enabled()
// (see obs/trace.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace tveg::obs {

/// Monotone counter, sharded across cache lines so concurrent writers from
/// different threads do not bounce one line.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 8;
  static std::size_t shard_index() noexcept;

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> shards_;
};

/// Last-value gauge (double); `add` is an atomic read-modify-write.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Lock-free histogram over geometric buckets (8 sub-buckets per octave,
/// ~9% relative resolution, covering ~2^-32 .. 2^32 with saturation at the
/// ends). Exact count/sum/min/max; quantiles are bucket-interpolated
/// estimates. Concurrent `observe` calls never lose samples.
class Histogram {
 public:
  void observe(double x) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  double min() const noexcept;  ///< +inf when empty
  double max() const noexcept;  ///< -inf when empty

  /// Exact count/sum/min/max plus estimated quantiles, each clamped to the
  /// exact observed [min, max]; all zero when empty.
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0, min = 0, max = 0;
    double p50 = 0, p90 = 0, p95 = 0, p99 = 0;
  };
  Snapshot snapshot() const noexcept;

  void reset() noexcept;

 private:
  static constexpr std::size_t kBuckets = 512;
  static constexpr int kSubBucketsPerOctave = 8;
  static std::size_t bucket_index(double x) noexcept;
  static double bucket_lower(std::size_t i) noexcept;

  using Buckets = std::array<std::uint64_t, kBuckets>;
  Buckets load_buckets() const noexcept;
  /// q-quantile of one bucket read, clamped to [lo, hi] when lo <= hi.
  static double quantile_of(const Buckets& buckets, double q, double lo,
                            double hi) noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;

 public:
  Histogram();
};

/// Name → metric directory. Counters, gauges and histograms live in
/// separate namespaces; lookups create on first use and return stable
/// references.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zeroes every metric (registrations and references stay valid).
  void reset();

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  /// Name-sorted point-in-time copy of every metric.
  Snapshot snapshot() const;

  /// Process-wide registry.
  static MetricsRegistry& global();

 private:
  mutable support::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TVEG_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      TVEG_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TVEG_GUARDED_BY(mutex_);
};

}  // namespace tveg::obs
