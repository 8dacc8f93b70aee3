#include "qfc/tomo/tomography.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "qfc/linalg/error.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::tomo {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

std::vector<MeasurementSetting> all_settings(std::size_t num_qubits) {
  if (num_qubits == 0 || num_qubits > 8)
    throw std::invalid_argument("all_settings: unsupported qubit count");
  std::vector<MeasurementSetting> out;
  std::size_t total = 1;
  for (std::size_t i = 0; i < num_qubits; ++i) total *= 3;
  out.reserve(total);
  const char bases[3] = {'X', 'Y', 'Z'};
  for (std::size_t idx = 0; idx < total; ++idx) {
    std::string s(num_qubits, 'X');
    std::size_t rem = idx;
    for (std::size_t q = num_qubits; q-- > 0;) {
      s[q] = bases[rem % 3];
      rem /= 3;
    }
    out.push_back(MeasurementSetting{std::move(s)});
  }
  return out;
}

namespace {

/// Single-qubit eigenstate of basis b with sign (+1 for outcome bit 0).
CVec basis_eigenstate(char basis, int sign, double phase_error_rad) {
  switch (basis) {
    case 'X': return quantum::xy_eigenstate(0.0 + phase_error_rad, sign);
    case 'Y':
      return quantum::xy_eigenstate(photonics::pi / 2.0 + phase_error_rad, sign);
    case 'Z': {
      CVec v(2, cplx(0, 0));
      v[sign > 0 ? 0 : 1] = cplx(1, 0);
      return v;
    }
    default: throw std::invalid_argument("basis_eigenstate: basis must be X, Y or Z");
  }
}

/// The single-qubit eigenvectors whose Kronecker product is outcome
/// `outcome` of setting `s`, qubit 0 first.
std::vector<CVec> outcome_factors(const MeasurementSetting& s, std::size_t outcome,
                                  const std::vector<double>& phase_errors) {
  const std::size_t n = s.num_qubits();
  if (outcome >= (std::size_t{1} << n))
    throw std::out_of_range("tomography: outcome out of range");
  std::vector<CVec> factors;
  factors.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    const int bit = (outcome >> (n - 1 - q)) & 1;
    const double err = phase_errors.empty() ? 0.0 : phase_errors[q];
    factors.push_back(basis_eigenstate(s.bases[q], bit ? -1 : +1, err));
  }
  return factors;
}

CMat setting_outcome_projector(const MeasurementSetting& s, std::size_t outcome,
                               const std::vector<double>& phase_errors) {
  CMat proj;
  for (const CVec& v : outcome_factors(s, outcome, phase_errors)) {
    const CMat p1 = quantum::projector(v);
    proj = proj.empty() ? p1 : linalg::kron(proj, p1);
  }
  return proj;
}

}  // namespace

CMat outcome_projector(const MeasurementSetting& s, std::size_t outcome) {
  return setting_outcome_projector(s, outcome, {});
}

CVec outcome_vector(const MeasurementSetting& s, std::size_t outcome) {
  CVec vec;
  for (const CVec& v : outcome_factors(s, outcome, {}))
    vec = vec.empty() ? v : linalg::kron(vec, v);
  return vec;
}

std::uint64_t SettingCounts::total() const {
  std::uint64_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           double shots_per_setting,
                                           const NoiseKnobs& noise, rng::Xoshiro256& g) {
  if (shots_per_setting <= 0)
    throw std::invalid_argument("simulate_counts: shots_per_setting <= 0");
  const std::size_t n = rho.num_qubits();
  const std::size_t num_outcomes = std::size_t{1} << n;

  std::vector<SettingCounts> out;
  for (const auto& s : all_settings(n)) {
    // Systematic analyzer phase error per qubit, fixed within the setting.
    std::vector<double> errs(n, 0.0);
    if (noise.analyzer_phase_rms_rad > 0)
      for (auto& e : errs) e = rng::sample_normal(g, 0.0, noise.analyzer_phase_rms_rad);

    SettingCounts sc;
    sc.setting = s;
    sc.counts.resize(num_outcomes);
    for (std::size_t o = 0; o < num_outcomes; ++o) {
      const double p = rho.probability(setting_outcome_projector(s, o, errs));
      const double mean = shots_per_setting * p + noise.accidentals_per_outcome;
      sc.counts[o] = rng::sample_poisson(g, mean);
    }
    out.push_back(std::move(sc));
  }
  return out;
}

namespace {

std::size_t checked_num_qubits(const std::vector<SettingCounts>& data) {
  if (data.empty()) throw std::invalid_argument("tomography: empty data");
  const std::size_t n = data.front().setting.num_qubits();
  for (const auto& d : data) {
    if (d.setting.num_qubits() != n)
      throw std::invalid_argument("tomography: inconsistent setting widths");
    if (d.counts.size() != (std::size_t{1} << n))
      throw std::invalid_argument("tomography: wrong outcome count");
  }
  return n;
}

}  // namespace

CMat linear_inversion(const std::vector<SettingCounts>& data) {
  const std::size_t n = checked_num_qubits(data);
  const std::size_t dim = std::size_t{1} << n;

  std::map<std::string, const SettingCounts*> by_setting;
  for (const auto& d : data) by_setting[d.setting.bases] = &d;

  CMat rho(dim, dim);
  // Identity term.
  for (std::size_t i = 0; i < dim; ++i) rho(i, i) = cplx(1.0, 0);

  // Enumerate all 4^n Pauli strings except the all-identity one.
  std::size_t total = 1;
  for (std::size_t i = 0; i < n; ++i) total *= 4;
  const char letters[4] = {'I', 'X', 'Y', 'Z'};

  for (std::size_t idx = 1; idx < total; ++idx) {
    std::string pstr(n, 'I');
    std::size_t rem = idx;
    for (std::size_t q = n; q-- > 0;) {
      pstr[q] = letters[rem % 4];
      rem /= 4;
    }
    // Compatible setting: replace I by Z.
    std::string setting = pstr;
    for (auto& c : setting)
      if (c == 'I') c = 'Z';
    const auto it = by_setting.find(setting);
    if (it == by_setting.end())
      throw std::invalid_argument("linear_inversion: missing setting " + setting);
    const SettingCounts& sc = *it->second;
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

RrrResult rrr_reconstruct(const std::vector<ProjectorTerm>& terms,
                          const CMat& seed, const MleOptions& opts) {
  seed.require_square("rrr_reconstruct");
  seed.require_finite("rrr_reconstruct");
  if (opts.max_iterations < 0)
    throw std::invalid_argument("rrr_reconstruct: negative max_iterations");
  if (!(opts.convergence_tol >= 0))
    throw std::invalid_argument("rrr_reconstruct: convergence_tol must be >= 0");
  const std::size_t dim = seed.rows();
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

  RrrResult res;
  for (int it = 0; it < opts.max_iterations; ++it) {
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
    const double delta = diff.frobenius_norm();
    rho = std::move(next);
    res.iterations = it + 1;
    if (delta < opts.convergence_tol) {
      res.converged = true;
      break;
    }
  }

  // Final cleanup: enforce exact Hermiticity/PSD within tolerance.
  rho = linalg::project_to_density_matrix(rho);
  outcome_probabilities(a * rho, a, 1e-300, p);
  double ll = 0;
  for (std::size_t k = 0; k < active; ++k) ll += counts[k] * std::log(p[k]);
  res.log_likelihood = ll;
  res.rho = std::move(rho);
  return res;
}

MleResult maximum_likelihood(const std::vector<SettingCounts>& data,
                             const MleOptions& opts) {
  checked_num_qubits(data);

  std::vector<ProjectorTerm> terms;
  for (const auto& d : data)
    for (std::size_t o = 0; o < d.counts.size(); ++o) {
      if (d.counts[o] == 0) continue;
      terms.push_back(ProjectorTerm{outcome_vector(d.setting, o),
                                    static_cast<double>(d.counts[o])});
    }

  // Seed: physical projection of the linear-inversion estimate.
  const CMat seed = linalg::project_to_density_matrix(linear_inversion(data));
  RrrResult core = rrr_reconstruct(terms, seed, opts);

  MleResult res{quantum::DensityMatrix(std::move(core.rho), 1e-6), core.iterations,
                core.converged, core.log_likelihood};
  return res;
}

}  // namespace qfc::tomo
