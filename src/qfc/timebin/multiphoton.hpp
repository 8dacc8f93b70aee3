#pragma once

/// \file multiphoton.hpp
/// Four-photon quantum interference (paper Sec. V): two Bell pairs on four
/// comb lines pass a common unbalanced interferometer; the four-fold
/// coincidence rate develops a fringe whose raw visibility the paper
/// reports at 89%.

#include <vector>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"

#include "qfc/io/fields.hpp"

namespace qfc::timebin {

/// Probability (per generated four-photon event, post-selection factors
/// stripped) of a four-fold coincidence when all four analyzers sit at the
/// same phase θ: Tr[ρ₄ Π(θ)⊗⁴].
double fourfold_probability(const quantum::DensityMatrix& rho4, double theta_rad);

struct FourfoldFringe {
  std::vector<double> phase_rad;
  std::vector<double> counts;    ///< MC counts
  std::vector<double> expected;  ///< analytic mean
  double visibility = 0;         ///< extrema-based (max−min)/(max+min) of expected

  QFC_JSON(FourfoldFringe, phase_rad, counts, expected, visibility)
};

/// Scan the common analyzer phase over [0, 2π). `events_per_point` is the
/// number of four-photon events contributing per phase point;
/// `accidental_floor` adds phase-independent four-fold background
/// (higher-order pair emission + dark-count combinations).
FourfoldFringe simulate_fourfold_fringe(const quantum::DensityMatrix& rho4,
                                        double events_per_point,
                                        double accidental_floor, int num_points,
                                        rng::Xoshiro256& g);

/// Analytic visibility of the four-fold fringe of (Werner V)⊗2 including a
/// flat accidental fraction f: derived from the (1 + V cos x)² fringe
/// shape. Used to cross-check the MC.
double fourfold_visibility(double pair_visibility, double accidental_fraction);

}  // namespace qfc::timebin
