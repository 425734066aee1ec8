#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace tveg::support {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.uniform_int(std::uint64_t{10})];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(std::uint64_t{0}), std::invalid_argument);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, ParetoMeanMatchesTheory) {
  // mean = shape*scale/(shape-1) for shape > 1; use shape 3 for fast
  // convergence.
  Rng rng(23);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.pareto(2.0, 3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(1.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, LognormalIsExpOfNormal) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(StreamSeed, DistinctAcrossSeedStreamGrid) {
  // Per-trial stream seeds must be distinct across a (seed, stream) grid —
  // the property Monte-Carlo trials rely on for independent streams.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed)
    for (std::uint64_t stream = 0; stream < 64; ++stream)
      seen.push_back(stream_seed(seed, stream));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "collision in the 64x64 (seed, stream) grid";
}

TEST(StreamSeed, FixesXorLinearCollisionOfOldScheme) {
  // The pre-fix derivation `seed ^ (kGolden * (trial + 1))` was XOR-linear:
  // two runs whose seeds differ by kGolden*d collide after shifting the
  // trial index by d, replaying entire trial streams across experiments.
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t seed_a = 42;
  const std::uint64_t seed_b = seed_a ^ (kGolden * 1) ^ (kGolden * 3);
  // Old scheme: trial 0 of run A == trial 2 of run B.
  EXPECT_EQ(seed_a ^ (kGolden * 1), seed_b ^ (kGolden * 3));
  // New scheme: no such alignment.
  EXPECT_NE(stream_seed(seed_a, 0), stream_seed(seed_b, 2));
}

TEST(StreamSeed, StreamsDecorrelated) {
  // Adjacent streams from one seed should look unrelated: generators seeded
  // from them must not emit matching outputs.
  Rng a(stream_seed(7, 0));
  Rng b(stream_seed(7, 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(StreamSeed, DeterministicForSameInputs) {
  EXPECT_EQ(stream_seed(42, 7), stream_seed(42, 7));
  EXPECT_EQ(stream_seed(0, 0), stream_seed(0, 0));
}

TEST(StreamSeed, DistinctStreamsAndSeedsGiveDistinctValues) {
  // 1024 (seed, stream) combinations must not collide: a collision would
  // silently correlate two "independent" experiment streams.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 32; ++seed)
    for (std::uint64_t stream = 0; stream < 32; ++stream)
      seen.push_back(stream_seed(seed, stream));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(StreamSeed, AdjacentStreamsAreStatisticallyIndependent) {
  // Rngs seeded from adjacent streams of the same base seed must not
  // produce correlated output: count exact collisions and matching
  // high bits across the first 256 draws.
  Rng a(stream_seed(99, 0)), b(stream_seed(99, 1));
  int equal = 0, same_top_byte = 0;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t x = a(), y = b();
    if (x == y) ++equal;
    if ((x >> 56) == (y >> 56)) ++same_top_byte;
  }
  EXPECT_EQ(equal, 0);
  EXPECT_LT(same_top_byte, 16);  // expectation 1, binomial tail
}

}  // namespace
}  // namespace tveg::support
