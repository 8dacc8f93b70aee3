#pragma once

/// \file franson.hpp
/// Time-bin quantum-interference fringes (paper Secs. IV and V). Every
/// photon passes a phase-stabilised unbalanced interferometer whose path
/// imbalance equals the time-bin separation; post-selecting the middle
/// arrival slot (probability 1/2 per photon) projects it onto
/// (|S> + e^{iφ}|L>)/√2, the '+' outcome of the X–Y analyzer
/// quantum::xy_basis(φ). simulate_fringe scans the analyzer phases and
/// takes the all-'+' probability from tomo::outcome_probabilities: for a
/// pair it is the folded-Franson fringe in (α + β + φ_pump) whose visibility
/// certifies entanglement, for two pairs the four-photon fringe of
/// multiphoton.hpp.

#include <functional>
#include <vector>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"

#include "qfc/io/fields.hpp"

namespace qfc::timebin {

/// Fringe scan result.
struct FringeScan {
  std::vector<double> phase_rad;    ///< scan phase θ per point
  std::vector<double> counts;       ///< MC coincidence counts per point
  std::vector<double> expected;     ///< analytic expectation per point

  QFC_JSON(FringeScan, phase_rad, counts, expected)
};

/// The analyzer phase φ_q(θ) of every particle q at scan phase θ.
using FringePhases = std::function<std::vector<double>(double theta_rad)>;

/// Scan θ over `num_points` phases across [0, 2π). At each θ particle q is
/// measured in quantum::xy_basis(phases(θ)[q]); the mean count is
/// events_per_point x P(every outcome '+') + floor_per_point, one Poisson
/// draw per point in scan order. Post-selection factors are the caller's:
/// fold them into events_per_point. Throws std::invalid_argument for
/// num_points < 4, events_per_point not finite and > 0, floor_per_point not
/// finite and >= 0, or phases that do not give one phase per particle of
/// rho.
FringeScan simulate_fringe(const quantum::DensityMatrix& rho, double events_per_point,
                           double floor_per_point, int num_points,
                           const FringePhases& phases, rng::Xoshiro256& g);

/// Fringe-visibility penalty from a path-imbalance mismatch δ between the
/// pump interferometer and an analyzer: the interfering wavepackets
/// overlap with |g⁽¹⁾(δ)| = exp(−|δ|/τ_c) for Lorentzian photons of
/// coherence time τ_c = 1/(π δν). Perfectly matched interferometers
/// (the paper's "path length difference matched") give 1.
double mismatch_visibility_penalty(double delay_mismatch_s,
                                   double photon_coherence_time_s);

}  // namespace qfc::timebin
