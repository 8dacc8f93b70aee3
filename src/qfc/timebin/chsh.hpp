#pragma once

/// \file chsh.hpp
/// Clauser-Horne-Shimony-Holt inequality evaluation for time-bin qubit
/// pairs (paper Sec. IV, ref [9]). Analyzer observables live in the X-Y
/// plane (interferometer phases); for the |Φ(φ_p)> family the optimal
/// settings give S = 2√2 V.

#include <array>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"

#include "qfc/io/fields.hpp"

namespace qfc::timebin {

/// Correlation E(α, β) = p₊₊ − p₊₋ − p₋₊ + p₋₋ of the X–Y analyzers
/// quantum::xy_basis(α) and xy_basis(β) (tomo::outcome_probabilities), that
/// is Tr[ρ A(α) ⊗ A(β)] with A(φ) = cos φ X + sin φ Y. Throws
/// std::invalid_argument for a state that is not a qubit pair.
double correlation(const quantum::DensityMatrix& rho, double alpha_rad, double beta_rad);

struct ChshSettings {
  double a0, a1;  ///< analyzer-A phases
  double b0, b1;  ///< analyzer-B phases
};

/// Optimal settings for |Φ(pump_phase)>: fringes go as cos(α+β+φ_p), so
/// a ∈ {0, π/2}, b ∈ {−φ_p − π/4, −φ_p + π/4}.
ChshSettings optimal_settings_for_phi(double pump_phase_rad = 0.0);

/// S = |E(a0,b0) + E(a0,b1) + E(a1,b0) − E(a1,b1)| (exact, from ρ).
double chsh_s_value(const quantum::DensityMatrix& rho, const ChshSettings& s);

/// Count-based CHSH estimate: for each of the 4 setting combinations,
/// E is estimated from Poisson-fluctuating coincidence counts in the four
/// outcome combinations (++, +−, −+, −−).
struct ChshMeasurement {
  double s = 0;
  double s_err = 0;
  std::array<double, 4> correlations{};  ///< E(a0,b0), E(a0,b1), E(a1,b0), E(a1,b1)
  bool violates_classical() const { return s > 2.0; }
  double sigmas_above_2() const { return s_err > 0 ? (s - 2.0) / s_err : 0.0; }

  QFC_JSON(ChshMeasurement, s, s_err, correlations, violates_classical, sigmas_above_2)
};

/// Simulate a CHSH measurement with `pairs_per_setting` detected pairs per
/// setting combination and a flat accidental floor per outcome, drawn by
/// tomo::sample_outcome_counts with each analyzer in quantum::xy_basis of
/// its phase. Throws std::invalid_argument for a state that is not a qubit
/// pair, pairs_per_setting not finite and > 0, or accidentals_per_outcome
/// not finite and >= 0.
ChshMeasurement measure_chsh(const quantum::DensityMatrix& rho, const ChshSettings& s,
                             double pairs_per_setting, double accidentals_per_outcome,
                             rng::Xoshiro256& g);

}  // namespace qfc::timebin
