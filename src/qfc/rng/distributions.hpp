#pragma once

/// \file distributions.hpp
/// Samplers used by the Monte-Carlo detection chain. All take the generator
/// explicitly; all are deterministic given the seed.

#include <cstdint>
#include <vector>

#include "qfc/rng/xoshiro.hpp"

namespace qfc::rng {

/// Standard normal via Marsaglia polar method.
double sample_normal(Xoshiro256& g);

/// Normal with given mean / standard deviation (sigma >= 0).
double sample_normal(Xoshiro256& g, double mean, double sigma);

/// Exponential with given rate lambda > 0 (mean 1/lambda).
double sample_exponential(Xoshiro256& g, double lambda);

/// Two-sided (Laplace) exponential with decay rate lambda: density
/// ~ exp(-lambda |x|). Models cavity-filtered photon arrival-time offsets.
double sample_double_exponential(Xoshiro256& g, double lambda);

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
bool sample_bernoulli(Xoshiro256& g, double p);

/// Sample an index from unnormalized non-negative weights.
std::size_t sample_discrete(Xoshiro256& g, const std::vector<double>& weights);

/// Thermal (Bose-Einstein / geometric) photon-number distribution with mean
/// occupation mu: P(n) = mu^n / (1+mu)^{n+1}. This is the single-mode
/// photon-number statistics of one arm of an SFWM squeezed state.
std::uint64_t sample_thermal(Xoshiro256& g, double mu);

}  // namespace qfc::rng
