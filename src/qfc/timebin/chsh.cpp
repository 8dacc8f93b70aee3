#include "qfc/timebin/chsh.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::timebin {

using photonics::pi;

double correlation(const quantum::DensityMatrix& rho, double alpha_rad, double beta_rad) {
  if (rho.num_qubits() != 2)
    throw std::invalid_argument("correlation: need a two-qubit state");
  const linalg::CMat obs =
      linalg::kron(quantum::xy_observable(alpha_rad), quantum::xy_observable(beta_rad));
  return std::real(rho.expectation(obs));
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

namespace {

/// Estimate one correlation from simulated outcome counts.
struct EstimatedE {
  double e;
  double var;
};

EstimatedE estimate_correlation(const quantum::DensityMatrix& rho, double alpha,
                                double beta, double pairs, double accidentals,
                                rng::Xoshiro256& g) {
  const auto proj = [](double phi, int sign) {
    return quantum::projector(quantum::xy_eigenstate(phi, sign));
  };
  double counts[4];
  double total = 0;
  double signed_sum = 0;
  int idx = 0;
  for (int sa : {+1, -1}) {
    for (int sb : {+1, -1}) {
      const linalg::CMat joint = linalg::kron(proj(alpha, sa), proj(beta, sb));
      const double p = rho.probability(joint);
      const double mean = pairs * p + accidentals;
      counts[idx] = static_cast<double>(rng::sample_poisson(g, mean));
      total += counts[idx];
      signed_sum += (sa * sb) * counts[idx];
      ++idx;
    }
  }
  EstimatedE out{0.0, 1.0};
  if (total > 0) {
    out.e = signed_sum / total;
    out.var = (1.0 - out.e * out.e) / total;
  }
  return out;
}

}  // namespace

ChshMeasurement measure_chsh(const quantum::DensityMatrix& rho, const ChshSettings& s,
                             double pairs_per_setting, double accidentals_per_outcome,
                             rng::Xoshiro256& g) {
  if (pairs_per_setting <= 0)
    throw std::invalid_argument("measure_chsh: pairs_per_setting <= 0");
  if (accidentals_per_outcome < 0)
    throw std::invalid_argument("measure_chsh: negative accidentals");

  const double combos[4][2] = {
      {s.a0, s.b0}, {s.a0, s.b1}, {s.a1, s.b0}, {s.a1, s.b1}};
  ChshMeasurement m;
  double var = 0;
  for (int i = 0; i < 4; ++i) {
    const EstimatedE est = estimate_correlation(
        rho, combos[i][0], combos[i][1], pairs_per_setting, accidentals_per_outcome, g);
    m.correlations[static_cast<std::size_t>(i)] = est.e;
    var += est.var;
  }
  m.s = std::abs(m.correlations[0] + m.correlations[1] + m.correlations[2] -
                 m.correlations[3]);
  m.s_err = std::sqrt(var);
  return m;
}

}  // namespace qfc::timebin
