// Randomized property tests for the interval algebra: every set operation
// is cross-checked against a dense point-sampling oracle. Unions, gaps and
// valid-start sets are built here from intervals() by linear scans, as the
// oracles for add()'s merging, intersect() and covers_closed().
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/rng.hpp"
#include "tvg/interval_set.hpp"

namespace tveg {
namespace {

constexpr double kSpan = 100.0;

IntervalSet random_set(support::Rng& rng, int max_intervals) {
  IntervalSet s;
  const int k = static_cast<int>(rng.uniform_int(std::uint64_t(max_intervals))) + 1;
  for (int i = 0; i < k; ++i) {
    const double a = rng.uniform(0.0, kSpan);
    const double len = rng.uniform(0.1, 20.0);
    s.add(a, std::min(a + len, kSpan + 25.0));
  }
  return s;
}

/// ρ(e, t): point membership is a zero-length transmission window at t.
bool present_at(const IntervalSet& s, Time t) { return s.covers_closed(t, t); }

/// a ∪ b, merged by add().
IntervalSet united(const IntervalSet& a, const IntervalSet& b) {
  IntervalSet u = a;
  for (const Interval& iv : b.intervals()) u.add(iv.start, iv.end);
  return u;
}

Time measure(const IntervalSet& s) {
  Time sum = 0;
  for (const Interval& iv : s.intervals()) sum += iv.length();
  return sum;
}

/// The gaps of `s` within [lo, hi).
std::vector<Interval> gaps(const IntervalSet& s, Time lo, Time hi) {
  std::vector<Interval> out;
  Time cursor = lo;
  for (const Interval& iv : s.intervals()) {
    if (iv.start > cursor) out.push_back({cursor, std::min(iv.start, hi)});
    cursor = std::max(cursor, iv.end);
  }
  if (cursor < hi) out.push_back({cursor, hi});
  return out;
}

/// Valid transmission starts for latency tau: each [s, e) shrinks to
/// [s, e - tau), dropped when empty.
std::vector<Interval> shrunk(const IntervalSet& s, Time tau) {
  std::vector<Interval> out;
  for (const Interval& iv : s.intervals())
    if (iv.end - tau > iv.start) out.push_back({iv.start, iv.end - tau});
  return out;
}

bool in_any(const std::vector<Interval>& ivs, Time x) {
  return std::any_of(ivs.begin(), ivs.end(),
                     [x](const Interval& iv) { return iv.contains(x); });
}

/// Dense sample points avoiding exact interval endpoints (endpoint behavior
/// is covered by the deterministic tests).
std::vector<double> probe_points() {
  std::vector<double> pts;
  for (double x = 0.05; x < kSpan + 25.0; x += 0.493) pts.push_back(x);
  return pts;
}

class IntervalAlgebraProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalAlgebraProperty, UnionMatchesPointwiseOr) {
  support::Rng rng(GetParam());
  const IntervalSet a = random_set(rng, 6);
  const IntervalSet b = random_set(rng, 6);
  const IntervalSet u = united(a, b);
  for (double x : probe_points())
    EXPECT_EQ(present_at(u, x), present_at(a, x) || present_at(b, x))
        << "x=" << x;
}

TEST_P(IntervalAlgebraProperty, IntersectionMatchesPointwiseAnd) {
  support::Rng rng(GetParam() * 31 + 7);
  const IntervalSet a = random_set(rng, 6);
  const IntervalSet b = random_set(rng, 6);
  const IntervalSet i = a.intersect(b);
  for (double x : probe_points())
    EXPECT_EQ(present_at(i, x), present_at(a, x) && present_at(b, x))
        << "x=" << x;
}

TEST_P(IntervalAlgebraProperty, ComplementMatchesPointwiseNot) {
  support::Rng rng(GetParam() * 57 + 13);
  const IntervalSet a = random_set(rng, 6);
  const std::vector<Interval> c = gaps(a, 0.0, kSpan + 25.0);
  for (double x : probe_points())
    EXPECT_EQ(in_any(c, x), !present_at(a, x)) << "x=" << x;
}

TEST_P(IntervalAlgebraProperty, NormalizationInvariants) {
  support::Rng rng(GetParam() * 101 + 3);
  const IntervalSet a = random_set(rng, 10);
  const auto& ivs = a.intervals();
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    EXPECT_LT(ivs[i].start, ivs[i].end);
    if (i > 0) {
      EXPECT_GT(ivs[i].start, ivs[i - 1].end);  // disjoint, sorted
    }
  }
}

TEST_P(IntervalAlgebraProperty, MeasureIsInclusionExclusion) {
  support::Rng rng(GetParam() * 211 + 5);
  const IntervalSet a = random_set(rng, 5);
  const IntervalSet b = random_set(rng, 5);
  const double lhs = measure(united(a, b)) + measure(a.intersect(b));
  const double rhs = measure(a) + measure(b);
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST_P(IntervalAlgebraProperty, ShrinkRightMatchesCoversClosed) {
  support::Rng rng(GetParam() * 577 + 1);
  const IntervalSet a = random_set(rng, 6);
  const double tau = rng.uniform(0.1, 5.0);
  const std::vector<Interval> valid = shrunk(a, tau);
  for (double x : probe_points()) {
    // Probe points avoid endpoints (almost surely, against the random τ),
    // so the half-open shrink and the closed-interval query agree.
    EXPECT_EQ(in_any(valid, x), a.covers_closed(x, x + tau))
        << "x=" << x << " tau=" << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalAlgebraProperty,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace tveg
