#pragma once

/// \file allan.hpp
/// Overlapping Allan deviation of a uniformly sampled rate series — the
/// metrology-grade way to characterize the long-term stability claim of
/// Sec. II ("several weeks with less than 5% fluctuation").

#include <cstddef>
#include <vector>

#include "qfc/io/fields.hpp"

namespace qfc::detect {

struct AllanPoint {
  double tau_s = 0;    ///< averaging time
  double sigma = 0;    ///< overlapping Allan deviation of the (fractional) series
  std::size_t pairs = 0;  ///< number of difference pairs averaged

  QFC_JSON(AllanPoint, tau_s, sigma, pairs)
};

/// Overlapping Allan deviation at averaging factor m (tau = m * dt):
///   σ²(τ) = 1/(2 (N − 2m)) Σ_{i=0}^{N-2m-1} (ȳ_{i+m} − ȳ_i)²
/// with ȳ_i the average of samples [i, i+m). Requires N >= 2m + 1.
double allan_deviation(const std::vector<double>& samples, std::size_t m);

/// Sweep octave-spaced averaging factors up to N/3.
std::vector<AllanPoint> allan_curve(const std::vector<double>& samples,
                                    double sample_interval_s);

}  // namespace qfc::detect
