#pragma once

/// \file franson.hpp
/// Folded-Franson quantum interference for time-bin entangled pairs
/// (paper Sec. IV): both photons traverse matched unbalanced
/// interferometers; post-selecting the middle arrival slot projects each
/// onto (|S> + e^{iφ}|L>)/√2 and the coincidence rate develops a fringe in
/// (α + β + φ_pump) whose visibility certifies entanglement.

#include <vector>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"
#include "qfc/timebin/interferometer.hpp"

#include "qfc/io/fields.hpp"

namespace qfc::timebin {

/// Relative weights of the three arrival-time-difference peaks of the
/// unpostselected coincidence histogram (|Δt| = ΔT, 0, +ΔT): 1 : 2 : 1 for
/// an ideal time-bin pair — the middle peak carries the interference.
struct ThreePeakStructure {
  double early = 0.25;
  double middle = 0.5;
  double late = 0.25;
};

/// Post-selected coincidence probability (per generated pair) for analyzer
/// phases α, β acting on the two-qubit time-bin state ρ. Includes the
/// 1/16 double post-selection factor of lossless Michelsons... scaled by
/// the analyzers' arm transmissions.
double coincidence_probability(const quantum::DensityMatrix& rho,
                               const UnbalancedMichelson& analyzer_a,
                               const UnbalancedMichelson& analyzer_b);

/// Fringe scan result.
struct FringeScan {
  std::vector<double> phase_rad;    ///< scanned analyzer-phase values
  std::vector<double> counts;       ///< MC coincidence counts per point
  std::vector<double> expected;     ///< analytic expectation per point

  QFC_JSON(FringeScan, phase_rad, counts, expected)
};

/// Simulate a fringe: analyzer B fixed, analyzer A scanned over
/// `num_points` phases across [0, 2π); Poisson counts with mean
/// pairs_per_point x coincidence probability + accidental floor.
FringeScan simulate_fringe(const quantum::DensityMatrix& rho, double pairs_per_point,
                           double accidental_floor_per_point, int num_points,
                           double analyzer_delay_s, double fixed_phase_rad,
                           rng::Xoshiro256& g);

/// Ideal three-peak histogram weights for a pair passing matched analyzers
/// (no post-selection).
ThreePeakStructure three_peak_weights();

}  // namespace qfc::timebin
