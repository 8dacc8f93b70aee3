#include "qfc/timebin/chsh.hpp"

#include <cmath>

#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/tomo/tomography.hpp"

namespace qfc::timebin {

using photonics::pi;

double correlation(const quantum::DensityMatrix& rho, double alpha_rad, double beta_rad) {
  // Outcomes ++, +−, −+, −− of the X–Y analyzers at α and β.
  const auto p = tomo::outcome_probabilities(
      rho, {quantum::xy_basis(alpha_rad), quantum::xy_basis(beta_rad)});
  return p[0] - p[1] - p[2] + p[3];
}

ChshSettings optimal_settings_for_phi(double pump_phase_rad) {
  // For |Φ(φ)> the correlation is E(α,β) = cos(α + β − φ); the maximal-S
  // settings put the four sums at ∓π/4, ±π/4, ...
  ChshSettings s;
  s.a0 = 0.0;
  s.a1 = pi / 2.0;
  s.b0 = pump_phase_rad - pi / 4.0;
  s.b1 = pump_phase_rad + pi / 4.0;
  return s;
}

double chsh_s_value(const quantum::DensityMatrix& rho, const ChshSettings& s) {
  const double e00 = correlation(rho, s.a0, s.b0);
  const double e01 = correlation(rho, s.a0, s.b1);
  const double e10 = correlation(rho, s.a1, s.b0);
  const double e11 = correlation(rho, s.a1, s.b1);
  return std::abs(e00 + e01 + e10 - e11);
}

ChshMeasurement measure_chsh(const quantum::DensityMatrix& rho, const ChshSettings& s,
                             double pairs_per_setting, double accidentals_per_outcome,
                             rng::Xoshiro256& g) {
  const double combos[4][2] = {
      {s.a0, s.b0}, {s.a0, s.b1}, {s.a1, s.b0}, {s.a1, s.b1}};
  ChshMeasurement m;
  double var = 0;
  for (int i = 0; i < 4; ++i) {
    // Outcomes ++, +−, −+, −− of the X–Y analyzers at α and β.
    const auto counts = tomo::sample_outcome_counts(
        rho, {quantum::xy_basis(combos[i][0]), quantum::xy_basis(combos[i][1])},
        pairs_per_setting, accidentals_per_outcome, g);
    double total = 0, signed_sum = 0;
    for (std::size_t o = 0; o < 4; ++o) {
      const double n = static_cast<double>(counts[o]);
      total += n;
      signed_sum += o == 0 || o == 3 ? n : -n;
    }
    double e = 0, e_var = 1;
    if (total > 0) {
      e = signed_sum / total;
      e_var = (1.0 - e * e) / total;
    }
    m.correlations[static_cast<std::size_t>(i)] = e;
    var += e_var;
  }
  m.s = std::abs(m.correlations[0] + m.correlations[1] + m.correlations[2] -
                 m.correlations[3]);
  m.s_err = std::sqrt(var);
  return m;
}

}  // namespace qfc::timebin
