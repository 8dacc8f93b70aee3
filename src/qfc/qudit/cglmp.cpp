#include "qfc/qudit/cglmp.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/qudit/measurement.hpp"
#include "qfc/tomo/tomography.hpp"

namespace qfc::qudit {

namespace {

std::size_t checked_pair_dim(const quantum::DensityMatrix& rho, const char* who) {
  if (rho.num_particles() != 2 || rho.dims()[0] != rho.dims()[1])
    throw std::invalid_argument(std::string(who) + ": need two equal-dimension qudits");
  return rho.dims()[0];
}

/// All four setting pairs' joint probabilities, indexed [a][b][m*d+n].
std::array<std::array<linalg::RVec, 2>, 2> all_joint_probabilities(
    const quantum::DensityMatrix& rho, const CglmpSettings& s) {
  std::array<std::array<linalg::RVec, 2>, 2> p;
  for (std::size_t a = 0; a < 2; ++a)
    for (std::size_t b = 0; b < 2; ++b) p[a][b] = cglmp_joint_probabilities(rho, a, b, s);
  return p;
}

/// I_d from per-setting joint probability tables (counts also work; each
/// table is normalized internally, which is what makes the count-based
/// estimator reuse this path).
double cglmp_from_probabilities(const std::array<std::array<linalg::RVec, 2>, 2>& p,
                                std::size_t d) {
  std::array<std::array<double, 2>, 2> norm{};
  for (std::size_t a = 0; a < 2; ++a)
    for (std::size_t b = 0; b < 2; ++b) {
      double t = 0;
      for (double v : p[a][b]) t += v;
      if (t <= 0) throw std::invalid_argument("cglmp: empty probability table");
      norm[a][b] = t;
    }

  // P(A_a = B_b + k) and P(B_b = A_a + k), outcomes mod d.
  const auto p_a_eq_b_plus = [&](std::size_t a, std::size_t b, std::size_t k) {
    double s = 0;
    for (std::size_t j = 0; j < d; ++j) s += p[a][b][((j + k) % d) * d + j];
    return s / norm[a][b];
  };
  const auto p_b_eq_a_plus = [&](std::size_t a, std::size_t b, std::size_t k) {
    double s = 0;
    for (std::size_t j = 0; j < d; ++j) s += p[a][b][j * d + (j + k) % d];
    return s / norm[a][b];
  };

  const auto md = [&](long long x) {
    const long long dd = static_cast<long long>(d);
    return static_cast<std::size_t>(((x % dd) + dd) % dd);
  };

  double i_d = 0;
  for (std::size_t k = 0; k < d / 2; ++k) {
    const double w =
        1.0 - 2.0 * static_cast<double>(k) / (static_cast<double>(d) - 1.0);
    const long long kk = static_cast<long long>(k);
    double term = 0;
    term += p_a_eq_b_plus(0, 0, md(kk));           // P(A1 = B1 + k)
    term += p_b_eq_a_plus(1, 0, md(kk + 1));       // P(B1 = A2 + k + 1)
    term += p_a_eq_b_plus(1, 1, md(kk));           // P(A2 = B2 + k)
    term += p_b_eq_a_plus(0, 1, md(kk));           // P(B2 = A1 + k)
    term -= p_a_eq_b_plus(0, 0, md(-kk - 1));      // P(A1 = B1 − k − 1)
    term -= p_b_eq_a_plus(1, 0, md(-kk));          // P(B1 = A2 − k)
    term -= p_a_eq_b_plus(1, 1, md(-kk - 1));      // P(A2 = B2 − k − 1)
    term -= p_b_eq_a_plus(0, 1, md(-kk - 1));      // P(B2 = A1 − k − 1)
    i_d += w * term;
  }
  return i_d;
}

/// The analyzer bases of setting pair (a, b). Alice's column m is
/// (1/√d) Σ_j e^{+i 2π j (m + α_a)/d}|j⟩, Bob's column n the conjugate family
/// (1/√d) Σ_j e^{−i 2π j (n − β_b)/d}|j⟩ — the CGLMP measurement layout,
/// realized by Fourier-basis analyzers — each normalized.
std::vector<CMat> setting_bases(std::size_t d, std::size_t a, std::size_t b,
                                const CglmpSettings& s) {
  if (a > 1 || b > 1) throw std::out_of_range("cglmp: setting index > 1");
  const FreqBinAnalyzer analyzer(d);
  std::vector<CMat> bases(2, CMat(d, d));
  for (std::size_t k = 0; k < d; ++k) {
    CVec alice = analyzer.fourier_vector(k, s.alpha[a], false);
    CVec bob = analyzer.fourier_vector(k, -s.beta[b], true);
    linalg::vnormalize(alice);
    linalg::vnormalize(bob);
    for (std::size_t j = 0; j < d; ++j) {
      bases[0](j, k) = alice[j];
      bases[1](j, k) = bob[j];
    }
  }
  return bases;
}

}  // namespace

linalg::RVec cglmp_joint_probabilities(const quantum::DensityMatrix& rho, std::size_t a,
                                       std::size_t b, const CglmpSettings& s) {
  const std::size_t d = checked_pair_dim(rho, "cglmp_joint_probabilities");
  return tomo::outcome_probabilities(rho, setting_bases(d, a, b, s));
}

double cglmp_value(const quantum::DensityMatrix& rho, const CglmpSettings& s) {
  const std::size_t d = checked_pair_dim(rho, "cglmp_value");
  return cglmp_from_probabilities(all_joint_probabilities(rho, s), d);
}

CglmpMeasurement measure_cglmp(const quantum::DensityMatrix& rho, double pairs_per_setting,
                               double accidentals_per_outcome, rng::Xoshiro256& g,
                               const CglmpSettings& s) {
  const std::size_t d = checked_pair_dim(rho, "measure_cglmp");

  std::array<std::array<linalg::RVec, 2>, 2> counts;
  double inv_total = 0;
  for (std::size_t a = 0; a < 2; ++a)
    for (std::size_t b = 0; b < 2; ++b) {
      const auto raw = tomo::sample_outcome_counts(rho, setting_bases(d, a, b, s),
                                                   pairs_per_setting,
                                                   accidentals_per_outcome, g);
      counts[a][b].assign(raw.begin(), raw.end());
      double t = 0;
      for (double c : counts[a][b]) t += c;
      if (t > 0) inv_total += 1.0 / t;
    }

  CglmpMeasurement m;
  m.i_value = cglmp_from_probabilities(counts, d);
  // Error model: I_d is a sum of four per-setting probability combinations,
  // each with multinomial variance <= 1/N per setting (the probability
  // weights are bounded by 1); this matches the CHSH-style estimate at d=2.
  m.i_err = std::sqrt(inv_total);
  return m;
}

std::size_t schmidt_number_witness(const quantum::DensityMatrix& rho) {
  const std::size_t d = checked_pair_dim(rho, "schmidt_number_witness");
  const double f = fidelity(rho, quantum::maximally_entangled(d));
  // Schmidt number <= r implies F <= r/d; certify the smallest r consistent
  // with the observed fidelity (numerical slack keeps F = r/d exactly from
  // over-claiming).
  const double scaled = f * static_cast<double>(d);
  const auto bound = static_cast<std::size_t>(std::ceil(scaled - 1e-9));
  return std::max<std::size_t>(1, std::min(bound, d));
}

}  // namespace qfc::qudit
