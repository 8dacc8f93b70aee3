#pragma once

/// \file multiphoton.hpp
/// Four-photon quantum interference (paper Sec. V): two Bell pairs on four
/// comb lines pass a common unbalanced interferometer, so all four X–Y
/// analyzers sit at the scan phase θ. The four-fold coincidence rate is
/// simulate_fringe (franson.hpp) with φ_q(θ) = θ for every photon, and its
/// raw visibility the paper reports at 89%.

#include "qfc/timebin/franson.hpp"

#include "qfc/io/fields.hpp"

namespace qfc::timebin {

/// A four-fold fringe scan and its visibility.
struct FourfoldFringe : FringeScan {
  /// Extrema-based (max−min)/(max+min) of `expected`.
  double visibility() const;

  QFC_JSON(FourfoldFringe, phase_rad, counts, expected, visibility)
};

/// Analytic visibility of the four-fold fringe of (Werner V)⊗2 including a
/// flat accidental fraction f: derived from the (1 + V cos x)² fringe
/// shape. Used to cross-check the MC.
double fourfold_visibility(double pair_visibility, double accidental_fraction);

}  // namespace qfc::timebin
