#pragma once

/// \file arrival_histogram.hpp
/// Monte-Carlo simulation of the raw arrival-time-difference histogram of
/// a time-bin pair behind the two analyzer interferometers. Each photon
/// takes the short or long analyzer path; coincidences land on five Δt
/// peaks at {−2ΔT, −ΔT, 0, +ΔT, +2ΔT}... for the pair state |SS>+|LL>
/// the outer combinations are path-forbidden, yielding the paper's
/// three-peak signature with 1:2:1 weights and interference confined to
/// the central peak.

#include <array>
#include <cstdint>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"
#include "qfc/timebin/interferometer.hpp"


namespace qfc::timebin {

struct ArrivalHistogram {
  /// Counts at Δt/ΔT = −2, −1, 0, +1, +2.
  std::array<std::uint64_t, 5> counts{};
  /// Ratio of the central peak to the mean of the two inner side peaks.
  /// The side peaks never interfere; the central one does:
  /// 2 at quadrature (the classic 1:2:1 signature), 3 at a fringe
  /// maximum, 1 at a fringe minimum for the ideal Bell pair.
  double central_to_side_ratio() const;
};

/// Simulate `num_pairs` post-selected pair detections of the two-qubit
/// time-bin state ρ through analyzers with phases (α, β) and equal delay.
/// Sampling follows the exact joint amplitudes of the five path
/// combinations.
ArrivalHistogram simulate_arrival_histogram(const quantum::DensityMatrix& rho,
                                            double alpha_rad, double beta_rad,
                                            std::uint64_t num_pairs,
                                            rng::Xoshiro256& g);

}  // namespace qfc::timebin
