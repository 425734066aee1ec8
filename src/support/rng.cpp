#include "support/rng.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace tveg::support {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed;
  x = splitmix64(x) ^ stream;
  return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  TVEG_REQUIRE(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  TVEG_REQUIRE(n > 0, "uniform_int(n) needs n > 0");
  // Lemire rejection-free-ish multiply-shift with rejection for exactness.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::pareto(double x_m, double alpha) {
  TVEG_REQUIRE(x_m > 0 && alpha > 0, "pareto needs positive scale and shape");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return x_m / std::pow(u, 1.0 / alpha);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  return mean + stddev * z;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::size_t Rng::index(std::size_t size) {
  TVEG_REQUIRE(size > 0, "cannot pick from an empty range");
  return static_cast<std::size_t>(uniform_int(static_cast<std::uint64_t>(size)));
}

}  // namespace tveg::support
