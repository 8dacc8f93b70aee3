#pragma once

/// \file distributions.hpp
/// Samplers used by the Monte-Carlo detection chain. All take the generator
/// explicitly; all are deterministic given the seed.

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "qfc/rng/xoshiro.hpp"

namespace qfc::rng {

namespace unchecked {

// The bare kernels behind the checked samplers below, for loops that
// validate their parameters once per spec or plan instead of once per draw
// (the emission samplers and the detector pass). A parameter outside the
// documented range gives an unspecified value here instead of an exception.

/// Standard normal via Marsaglia polar method; discards the second variate.
/// The streaming engine's detector pass draws one per arrival (jitter) and
/// pulsed emission one per kept pair (pulse envelope), so this loop is hot;
/// since the samplers were thinned to the photons that click, it runs once
/// per click rather than once per emitted photon. Caching the second
/// variate would change every generated stream and its pinned outputs.
inline double normal(Xoshiro256& g) {
  for (;;) {
    const double u = g.uniform(-1.0, 1.0);
    const double v = g.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) return u * std::sqrt(-2.0 * std::log(s) / s);
  }
}

/// Normal with mean `mean` and standard deviation sigma >= 0.
inline double normal(Xoshiro256& g, double mean, double sigma) {
  return mean + sigma * normal(g);
}

/// Exponential with rate lambda > 0. 1 - uniform() is in (0, 1], so the log
/// argument never vanishes.
inline double exponential(Xoshiro256& g, double lambda) {
  return -std::log(1.0 - g.uniform()) / lambda;
}

/// Laplace with decay rate lambda > 0: an exponential magnitude, then a
/// fair sign.
inline double double_exponential(Xoshiro256& g, double lambda) {
  const double mag = exponential(g, lambda);
  return g.uniform() < 0.5 ? -mag : mag;
}

/// Bernoulli with success probability p in [0, 1].
inline bool bernoulli(Xoshiro256& g, double p) { return g.uniform() < p; }

}  // namespace unchecked

// The checked samplers: each rejects a NaN parameter as well as an
// out-of-range one, then runs the matching unchecked kernel.

/// Standard normal via Marsaglia polar method.
inline double sample_normal(Xoshiro256& g) { return unchecked::normal(g); }

/// Normal with given mean / standard deviation (sigma >= 0).
inline double sample_normal(Xoshiro256& g, double mean, double sigma) {
  if (!(sigma >= 0)) throw std::invalid_argument("sample_normal: sigma must be >= 0");
  return unchecked::normal(g, mean, sigma);
}

/// Exponential with given rate lambda > 0 (mean 1/lambda).
inline double sample_exponential(Xoshiro256& g, double lambda) {
  if (!(lambda > 0)) throw std::invalid_argument("sample_exponential: lambda must be > 0");
  return unchecked::exponential(g, lambda);
}

/// Two-sided (Laplace) exponential with decay rate lambda > 0: density
/// ~ exp(-lambda |x|). Models cavity-filtered photon arrival-time offsets.
inline double sample_double_exponential(Xoshiro256& g, double lambda) {
  if (!(lambda > 0))
    throw std::invalid_argument("sample_double_exponential: lambda must be > 0");
  return unchecked::double_exponential(g, lambda);
}

/// Poisson with finite mean mu >= 0 (std::invalid_argument otherwise). Uses
/// inversion for small mu and the transformed-rejection method (PTRS,
/// Hörmann 1993) for large mu.
std::uint64_t sample_poisson(Xoshiro256& g, double mu);

/// Poisson with finite mean mu > 0 conditioned on k >= 1. Used by the sparse
/// pulsed-emission kernel, which visits only the occupied pulse slots of
/// a pulse train (occupancy probability 1 - e^-mu per slot) and therefore
/// needs the per-visited-slot pair number without the zero class.
std::uint64_t sample_zero_truncated_poisson(Xoshiro256& g, double mu);

/// Bernoulli with success probability p in [0, 1].
inline bool sample_bernoulli(Xoshiro256& g, double p) {
  if (!(p >= 0 && p <= 1)) throw std::invalid_argument("sample_bernoulli: p outside [0,1]");
  return unchecked::bernoulli(g, p);
}

/// Sample an index from unnormalized non-negative weights.
std::size_t sample_discrete(Xoshiro256& g, const std::vector<double>& weights);

/// Thermal (Bose-Einstein / geometric) photon-number distribution with mean
/// occupation mu: P(n) = mu^n / (1+mu)^{n+1}. This is the single-mode
/// photon-number statistics of one arm of an SFWM squeezed state.
std::uint64_t sample_thermal(Xoshiro256& g, double mu);

}  // namespace qfc::rng
