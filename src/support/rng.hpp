// Deterministic random number generation.
//
// All stochastic components of the library (trace generators, RAND baselines,
// Monte-Carlo channel draws) draw from tveg::support::Rng so that every
// experiment is reproducible from a single seed and independent of the
// platform's std::uniform_* implementations.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace tveg::support {

/// xoshiro256** PRNG seeded through splitmix64; deterministic across
/// platforms. Parallel streams take their seeds from stream_seed().
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value (UniformRandomBitGenerator interface).
  std::uint64_t operator()();

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~std::uint64_t{0}; }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_int(std::uint64_t n);
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);
  /// Pareto (type I) with scale x_m > 0 and shape alpha > 0: heavy-tailed
  /// inter-contact times as observed in the Haggle trace.
  double pareto(double x_m, double alpha);
  /// Standard normal via Box–Muller (no cached spare: keeps the stream
  /// position independent of call interleaving).
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Fisher–Yates shuffle of `v` in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size);

 private:
  std::array<std::uint64_t, 4> state_;
};

/// Seed of stream `stream` in the family rooted at `seed`: two rounds of
/// splitmix64 with the stream index injected between them. Use this — not
/// `seed ^ f(stream)` — to derive per-trial seeds: XOR with any per-stream
/// offset is linear, so two scenario seeds produce *identical* trial
/// streams at shifted indices (s ^ f(i) == s' ^ f(j) has solutions for
/// every pair s, s'), silently correlating supposedly independent
/// experiments. The double avalanche decorrelates both arguments fully.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace tveg::support
