#include "qfc/rng/distributions.hpp"

#include <cmath>
#include <stdexcept>

namespace qfc::rng {

namespace {

std::uint64_t poisson_inversion(Xoshiro256& g, double mu) {
  // Knuth-style sequential search on the CDF; fine for mu <~ 30.
  const double target = g.uniform();
  double p = std::exp(-mu);
  double cdf = p;
  std::uint64_t k = 0;
  while (target > cdf && k < 1100) {
    ++k;
    p *= mu / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

std::uint64_t poisson_ptrs(Xoshiro256& g, double mu) {
  // Transformed rejection with squeeze (Hörmann, 1993). Valid for mu >= 10.
  const double b = 0.931 + 2.53 * std::sqrt(mu);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);

  for (;;) {
    const double u = g.uniform() - 0.5;
    const double v = g.uniform();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mu + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        k * std::log(mu) - mu - std::lgamma(k + 1.0)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace

std::uint64_t sample_poisson(Xoshiro256& g, double mu) {
  // PTRS never accepts a NaN or infinite mean: reject it instead of looping.
  if (!std::isfinite(mu)) throw std::invalid_argument("sample_poisson: non-finite mean");
  if (mu < 0) throw std::invalid_argument("sample_poisson: negative mean");
  if (mu == 0) return 0;
  if (mu < 30.0) return poisson_inversion(g, mu);
  return poisson_ptrs(g, mu);
}

std::uint64_t sample_zero_truncated_poisson(Xoshiro256& g, double mu) {
  if (!(mu > 0) || !std::isfinite(mu))
    throw std::invalid_argument("sample_zero_truncated_poisson: mean must be finite and > 0");
  if (mu >= 30.0) {
    // P(0) = e^-mu is astronomically small here; plain rejection of the
    // zero class virtually never loops.
    for (;;) {
      const std::uint64_t k = poisson_ptrs(g, mu);
      if (k > 0) return k;
    }
  }
  // Sequential CDF inversion over k >= 1: the target is uniform on
  // (0, 1 - e^-mu), the total mass of the truncated distribution.
  const double target = g.uniform() * -std::expm1(-mu);
  double p = std::exp(-mu) * mu;  // P(k = 1)
  double cdf = p;
  std::uint64_t k = 1;
  while (target > cdf && k < 1100) {
    ++k;
    p *= mu / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

std::size_t sample_discrete(Xoshiro256& g, const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("sample_discrete: negative weight");
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("sample_discrete: all weights zero");
  double target = g.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bin
}

std::uint64_t sample_thermal(Xoshiro256& g, double mu) {
  if (mu < 0) throw std::invalid_argument("sample_thermal: negative mean");
  if (mu == 0) return 0;
  // Geometric with success probability 1/(1+mu), supported on {0,1,2,...}.
  const double q = mu / (1.0 + mu);  // P(n >= k+1 | n >= k)
  std::uint64_t n = 0;
  while (g.uniform() < q && n < 10000) ++n;
  return n;
}

}  // namespace qfc::rng
