#include "qfc/tomo/tomography.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "qfc/linalg/error.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::tomo {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

namespace {

std::size_t power(std::size_t base, std::size_t n) {
  std::size_t r = 1;
  while (n-- > 0) r *= base;
  return r;
}

/// Column (digit q of `outcome`) of bases[q] for every particle q.
std::vector<CVec> outcome_factors(const std::vector<CMat>& bases, std::size_t outcome) {
  std::vector<CVec> factors(bases.size());
  for (std::size_t q = bases.size(); q-- > 0; outcome /= bases[q].cols()) {
    factors[q].resize(bases[q].rows());
    for (std::size_t j = 0; j < bases[q].rows(); ++j)
      factors[q][j] = bases[q](j, outcome % bases[q].cols());
  }
  if (outcome != 0) throw std::out_of_range("tomography: outcome out of range");
  return factors;
}

}  // namespace

std::uint64_t SettingCounts::total() const {
  std::uint64_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

std::vector<CMat> setting_bases(const BasisSet& set, const std::vector<std::size_t>& setting) {
  std::vector<CMat> bases;
  for (std::size_t b : setting) bases.push_back(set.at(b));
  return bases;
}

CVec outcome_vector(const std::vector<CMat>& bases, std::size_t outcome) {
  CVec vec;
  for (const CVec& v : outcome_factors(bases, outcome))
    vec = vec.empty() ? v : linalg::kron(vec, v);
  return vec;
}

CMat outcome_projector(const std::vector<CMat>& bases, std::size_t outcome) {
  CMat proj;
  for (const CVec& v : outcome_factors(bases, outcome)) {
    const CMat p1 = linalg::outer(v, v);
    proj = proj.empty() ? p1 : linalg::kron(proj, p1);
  }
  return proj;
}

std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           const BasisSet& set, double shots_per_setting,
                                           double accidentals_per_outcome,
                                           rng::Xoshiro256& g, const Analyzer& analyzer) {
  if (!(shots_per_setting > 0) || !std::isfinite(shots_per_setting))
    throw std::invalid_argument("simulate_counts: shots_per_setting must be finite and > 0");
  if (!std::isfinite(accidentals_per_outcome))
    throw std::invalid_argument("simulate_counts: accidentals_per_outcome must be finite");
  for (std::size_t d : rho.dims())
    if (d != set.at(0).rows())
      throw std::invalid_argument("simulate_counts: particle dimension is not the basis set's");

  const std::size_t n = rho.num_particles();
  std::vector<SettingCounts> out(power(set.size(), n));
  for (std::size_t s = 0; s < out.size(); ++s) {
    SettingCounts& sc = out[s];
    sc.bases.resize(n);
    for (std::size_t q = n, rem = s; q-- > 0; rem /= set.size()) sc.bases[q] = rem % set.size();
    const auto measured = analyzer ? analyzer(sc.bases) : setting_bases(set, sc.bases);
    sc.counts.resize(rho.dim());
    for (std::size_t o = 0; o < sc.counts.size(); ++o) {
      const double p = rho.probability(outcome_projector(measured, o));
      sc.counts[o] = rng::sample_poisson(g, shots_per_setting * p + accidentals_per_outcome);
    }
  }
  return out;
}

std::size_t checked_particles(const std::vector<SettingCounts>& data, const BasisSet& set) {
  if (data.empty()) throw std::invalid_argument("tomography: empty data");
  const std::size_t n = data.front().bases.size();
  const std::size_t dim = quantum::total_dim(quantum::Dims(n, set.at(0).rows()));
  const std::size_t num_settings = power(set.size(), n);
  if (data.size() != num_settings)
    throw std::invalid_argument("tomography: need every setting exactly once");
  std::vector<bool> seen(num_settings, false);
  for (const auto& sc : data) {
    if (sc.bases.size() != n || sc.counts.size() != dim)
      throw std::invalid_argument("tomography: malformed setting");
    std::size_t key = 0;
    for (std::size_t b : sc.bases) {
      if (b >= set.size()) throw std::invalid_argument("tomography: basis index out of range");
      key = key * set.size() + b;
    }
    if (seen[key]) throw std::invalid_argument("tomography: need every setting exactly once");
    seen[key] = true;
  }
  return n;
}

namespace {

/// Re⟨v_k|ρ|v_k⟩ for every packed term k, from row k of w = A·ρ and row k
/// of A = V† (Re Σ_j w(k,j)·conj(A(k,j)), summed in real arithmetic).
void outcome_probabilities(const CMat& w, const CMat& a, double floor,
                           std::vector<double>& p) {
  const std::size_t dim = a.cols();
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const cplx* wk = w.data() + k * dim;
    const cplx* ak = a.data() + k * dim;
    double s = 0;
    for (std::size_t j = 0; j < dim; ++j)
      s += std::real(wk[j]) * std::real(ak[j]) + std::imag(wk[j]) * std::imag(ak[j]);
    p[k] = std::max(floor, s);
  }
}

bool all_finite(const CVec& v) {
  for (const cplx& x : v)
    if (!std::isfinite(std::real(x)) || !std::isfinite(std::imag(x))) return false;
  return true;
}

}  // namespace

MleResult rrr_reconstruct(const std::vector<ProjectorTerm>& terms, const CMat& seed,
                          quantum::Dims dims, const MleOptions& opts) {
  seed.require_square("rrr_reconstruct");
  seed.require_finite("rrr_reconstruct");
  const std::size_t dim = seed.rows();
  if (quantum::total_dim(dims) != dim)
    throw std::invalid_argument("rrr_reconstruct: seed size does not match dims");
  if (opts.max_iterations < 0)
    throw std::invalid_argument("rrr_reconstruct: negative max_iterations");
  if (!(opts.convergence_tol >= 0))
    throw std::invalid_argument("rrr_reconstruct: convergence_tol must be >= 0");
  double grand_total = 0;
  std::size_t active = 0;
  for (const auto& t : terms) {
    if (t.vector.size() != dim)
      throw std::invalid_argument("rrr_reconstruct: vector length mismatch");
    if (!all_finite(t.vector))
      throw std::invalid_argument("rrr_reconstruct: non-finite vector entry");
    if (!std::isfinite(t.count))
      throw std::invalid_argument("rrr_reconstruct: non-finite count");
    if (t.count < 0)
      throw std::invalid_argument(
          "rrr_reconstruct: negative count (background-subtracted data is not "
          "valid RρR input)");
    grand_total += t.count;
    if (t.count > 0) ++active;
  }
  if (grand_total <= 0) throw std::invalid_argument("rrr_reconstruct: no counts");

  // Pack the active terms once: row k of a = A = V† is ⟨v_k|, column k of
  // v = V is |v_k⟩, so R = Σ_k c_k |v_k⟩⟨v_k| = V·diag(c)·A.
  CMat a(active, dim), v(dim, active), b(active, dim);
  std::vector<double> counts(active), p(active);
  {
    std::size_t k = 0;
    for (const auto& t : terms) {
      if (t.count <= 0) continue;
      for (std::size_t j = 0; j < dim; ++j) {
        a.data()[k * dim + j] = std::conj(t.vector[j]);
        v.data()[j * active + k] = t.vector[j];
      }
      counts[k++] = t.count;
    }
  }

  // Mix a little identity into the seed so no projector starts at exactly
  // zero probability.
  CMat rho = seed;
  {
    CMat eye = CMat::identity(dim);
    eye *= cplx(1e-3 / static_cast<double>(dim), 0);
    rho *= cplx(1.0 - 1e-3, 0);
    rho += eye;
  }

  int iterations = 0;
  bool converged = false;
  while (iterations < opts.max_iterations && !converged) {
    outcome_probabilities(a * rho, a, 1e-12, p);
    for (std::size_t k = 0; k < active; ++k) {
      const double c = counts[k] / (grand_total * p[k]);
      const cplx* ak = a.data() + k * dim;
      cplx* bk = b.data() + k * dim;
      for (std::size_t j = 0; j < dim; ++j) bk[j] = ak[j] * c;
    }
    const CMat r = v * b;
    CMat next = r * rho * r;
    const cplx tr = next.trace();
    if (std::abs(tr) < 1e-300)
      throw qfc::NumericalError("rrr_reconstruct: degenerate iterate");
    next *= cplx(1.0, 0) / tr;

    CMat diff = next;
    diff -= rho;
    converged = diff.frobenius_norm() < opts.convergence_tol;
    rho = std::move(next);
    ++iterations;
  }

  // Final cleanup: enforce exact Hermiticity/PSD within tolerance.
  rho = linalg::project_to_density_matrix(rho);
  outcome_probabilities(a * rho, a, 1e-300, p);
  double ll = 0;
  for (std::size_t k = 0; k < active; ++k) ll += counts[k] * std::log(p[k]);
  return MleResult{quantum::DensityMatrix(std::move(rho), std::move(dims), 1e-6), iterations,
                   converged, ll};
}

MleResult maximum_likelihood(const std::vector<SettingCounts>& data, const BasisSet& set,
                             const CMat& linear_estimate, const MleOptions& opts) {
  const std::size_t n = checked_particles(data, set);
  std::vector<ProjectorTerm> terms;
  for (const auto& sc : data) {
    const auto measured = setting_bases(set, sc.bases);
    for (std::size_t o = 0; o < sc.counts.size(); ++o)
      if (sc.counts[o] > 0)
        terms.push_back(
            ProjectorTerm{outcome_vector(measured, o), static_cast<double>(sc.counts[o])});
  }
  return rrr_reconstruct(terms, linalg::project_to_density_matrix(linear_estimate),
                         quantum::Dims(n, set.at(0).rows()), opts);
}

// ------------------------------------------------------------------------
// Qubit Pauli path.

BasisSet pauli_bases(double phase_error_rad) {
  const auto xy_basis = [](double phi) {
    const CVec plus = quantum::xy_eigenstate(phi, +1), minus = quantum::xy_eigenstate(phi, -1);
    return CMat{{plus[0], minus[0]}, {plus[1], minus[1]}};
  };
  return {xy_basis(0.0 + phase_error_rad), xy_basis(photonics::pi / 2.0 + phase_error_rad),
          CMat::identity(2)};
}

std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           double shots_per_setting,
                                           const NoiseKnobs& noise, rng::Xoshiro256& g) {
  const double rms = noise.analyzer_phase_rms_rad;
  if (!std::isfinite(rms))
    throw std::invalid_argument("simulate_counts: analyzer_phase_rms_rad must be finite");
  Analyzer analyzer;
  if (rms > 0)
    // Systematic analyzer phase error per qubit, fixed within the setting.
    analyzer = [&](const std::vector<std::size_t>& setting) {
      std::vector<CMat> measured;
      for (std::size_t b : setting)
        measured.push_back(pauli_bases(rng::sample_normal(g, 0.0, rms))[b]);
      return measured;
    };
  return simulate_counts(rho, pauli_bases(), shots_per_setting,
                         noise.accidentals_per_outcome, g, analyzer);
}

CMat linear_inversion(const std::vector<SettingCounts>& data) {
  const std::size_t n = checked_particles(data, pauli_bases());
  const std::size_t dim = std::size_t{1} << n;

  // The settings by mixed-radix index over {X, Y, Z}; checked_particles
  // guarantees each appears once.
  std::vector<const SettingCounts*> by_setting(data.size());
  for (const auto& sc : data) {
    std::size_t key = 0;
    for (std::size_t b : sc.bases) key = key * 3 + b;
    by_setting[key] = &sc;
  }

  CMat rho(dim, dim);
  // Identity term.
  for (std::size_t i = 0; i < dim; ++i) rho(i, i) = cplx(1.0, 0);

  // Enumerate all 4^n Pauli strings except the all-identity one.
  const std::size_t num_strings = power(4, n);
  for (std::size_t idx = 1; idx < num_strings; ++idx) {
    // The string, and its compatible setting: I measured as Z, so letter
    // i of "IXYZ" is basis (i + 2) % 3 of {X, Y, Z}.
    std::string pstr(n, 'I');
    std::size_t key = 0, rem = idx, place = 1;
    for (std::size_t q = n; q-- > 0; rem /= 4, place *= 3) {
      pstr[q] = "IXYZ"[rem % 4];
      key += (rem % 4 + 2) % 3 * place;
    }
    const SettingCounts& sc = *by_setting[key];
    const double tot = static_cast<double>(sc.total());
    if (tot <= 0) continue;

    double expectation = 0;
    for (std::size_t o = 0; o < sc.counts.size(); ++o) {
      int sign = 1;
      for (std::size_t q = 0; q < n; ++q) {
        if (pstr[q] == 'I') continue;
        if ((o >> (n - 1 - q)) & 1) sign = -sign;
      }
      expectation += sign * static_cast<double>(sc.counts[o]);
    }
    expectation /= tot;

    CMat term = quantum::pauli_string(pstr);
    term *= cplx(expectation, 0);
    rho += term;
  }

  rho *= cplx(1.0 / static_cast<double>(dim), 0);
  return rho;
}

MleResult maximum_likelihood(const std::vector<SettingCounts>& data,
                             const MleOptions& opts) {
  return maximum_likelihood(data, pauli_bases(), linear_inversion(data), opts);
}

}  // namespace qfc::tomo
