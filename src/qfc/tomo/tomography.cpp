#include "qfc/tomo/tomography.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/obs/obs.hpp"
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

std::vector<double> outcome_probabilities(const quantum::DensityMatrix& rho,
                                          const std::vector<CMat>& bases) {
  bool match = bases.size() == rho.num_particles();
  for (std::size_t q = 0; q < bases.size() && match; ++q)
    match = bases[q].is_square() && bases[q].rows() == rho.dims()[q];
  if (!match)
    throw std::invalid_argument("outcome_probabilities: particle dimension is not the basis's");
  std::vector<double> p(rho.dim());
  for (std::size_t o = 0; o < p.size(); ++o) {
    const CVec v = outcome_vector(bases, o);
    p[o] = std::min(1.0, std::max(0.0, std::real(linalg::vdot(v, rho.matrix() * v))));
  }
  return p;
}

std::vector<std::uint64_t> sample_outcome_counts(const quantum::DensityMatrix& rho,
                                                 const std::vector<CMat>& bases, double shots,
                                                 double accidentals_per_outcome,
                                                 rng::Xoshiro256& g) {
  if (!(shots > 0) || !std::isfinite(shots))
    throw std::invalid_argument("sample_outcome_counts: shots must be finite and > 0");
  if (!(accidentals_per_outcome >= 0) || !std::isfinite(accidentals_per_outcome))
    throw std::invalid_argument(
        "sample_outcome_counts: accidentals_per_outcome must be finite and >= 0");
  const std::vector<double> p = outcome_probabilities(rho, bases);
  std::vector<std::uint64_t> counts(p.size());
  for (std::size_t o = 0; o < p.size(); ++o)
    counts[o] = rng::sample_poisson(g, shots * p[o] + accidentals_per_outcome);
  return counts;
}

std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           const BasisSet& set, double shots_per_setting,
                                           double accidentals_per_outcome,
                                           rng::Xoshiro256& g, const Analyzer& analyzer) {
  const std::size_t n = rho.num_particles();
  std::vector<SettingCounts> out(power(set.size(), n));
  for (std::size_t s = 0; s < out.size(); ++s) {
    SettingCounts& sc = out[s];
    sc.bases.resize(n);
    for (std::size_t q = n, rem = s; q-- > 0; rem /= set.size()) sc.bases[q] = rem % set.size();
    sc.counts = sample_outcome_counts(
        rho, analyzer ? analyzer(sc.bases) : setting_bases(set, sc.bases), shots_per_setting,
        accidentals_per_outcome, g);
  }
  return out;
}

std::size_t checked_particles(const std::vector<SettingCounts>& data, const BasisSet& set) {
  const std::size_t d = set.at(0).rows();
  for (const CMat& basis : set) {
    if (basis.rows() != d || basis.cols() != d)
      throw std::invalid_argument("tomography: every basis must be d x d");
    basis.require_finite("tomography");
  }
  if (data.empty()) throw std::invalid_argument("tomography: empty data");
  const std::size_t n = data.front().bases.size();
  const std::size_t dim = quantum::total_dim(quantum::Dims(n, d));
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

CMat linear_inversion(const std::vector<SettingCounts>& data, const BasisSet& set) {
  const std::size_t n = checked_particles(data, set);
  const std::size_t d = set.front().rows(), d2 = d * d, m_count = set.size() * d;
  if (set.size() != d + 1)
    throw std::invalid_argument("linear_inversion: need a complete set of d + 1 bases");
  // The dual frame element D_m = |v_m⟩⟨v_m| − I/(d+1) of outcome k in basis
  // b, m = b·d + k, as d² entries (row-major).
  std::vector<cplx> dual(m_count * d2);
  for (std::size_t b = 0; b < set.size(); ++b)
    for (std::size_t k = 0; k < d; ++k)
      for (std::size_t i = 0; i < d; ++i)
        for (std::size_t j = 0; j < d; ++j)
          dual[(b * d + k) * d2 + i * d + j] =
              set[b](i, k) * std::conj(set[b](j, k)) - (i == j ? 1.0 / (d + 1) : 0.0);
  // The frequencies f(o|s) as a tensor over (m_0, ..., m_{n-1}), particle 0
  // slowest; a setting with no counts contributes nothing.
  std::vector<cplx> t(power(m_count, n));
  for (const auto& sc : data) {
    const double total = static_cast<double>(sc.total());
    if (total <= 0) continue;
    for (std::size_t o = 0; o < sc.counts.size(); ++o) {
      std::size_t m = 0, place = 1;
      for (std::size_t q = n, rem = o; q-- > 0; rem /= d, place *= m_count)
        m += (sc.bases[q] * d + rem % d) * place;
      t[m] = static_cast<double>(sc.counts[o]) / total;
    }
  }
  // Contract one particle at a time: index m_q becomes the entry pair
  // (i_q, j_q) of D_{m_q}, at the same position, so the tensor ends up
  // indexed by (i_0, j_0, ..., i_{n-1}, j_{n-1}).
  for (std::size_t q = 0, done = 1; q < n; ++q, done *= d2) {
    const std::size_t rest = t.size() / (done * m_count);
    std::vector<cplx> next(done * d2 * rest);
    for (std::size_t p = 0; p < done; ++p)
      for (std::size_t m = 0; m < m_count; ++m)
        for (std::size_t r = 0; r < rest; ++r) {
          const cplx f = t[(p * m_count + m) * rest + r];
          for (std::size_t e = 0; e < d2; ++e)
            next[(p * d2 + e) * rest + r] += f * dual[m * d2 + e];
        }
    t.swap(next);
  }
  const std::size_t dim = power(d, n);
  CMat rho(dim, dim);
  for (std::size_t idx = 0; idx < t.size(); ++idx) {
    std::size_t i = 0, j = 0, place = 1;
    for (std::size_t q = n, rem = idx; q-- > 0; rem /= d2, place *= d) {
      i += rem % d2 / d * place;
      j += rem % d * place;
    }
    rho(i, j) = t[idx];
  }
  return rho;
}

namespace {

/// The likelihood over the outcomes with counts, packed once: row k of
/// a = A = V† is ⟨v_k|, column k of v = V is |v_k⟩, f_k = n_k/N. One K x D
/// work matrix, allocated once per solve, holds W = A·m or diag(c)·A in turn.
class PackedLikelihood {
 public:
  PackedLikelihood(const std::vector<SettingCounts>& data, const BasisSet& set,
                   std::size_t dim) {
    std::size_t active = 0;
    for (const auto& sc : data)
      for (std::uint64_t c : sc.counts) {
        total_ += static_cast<double>(c);
        active += c > 0;
      }
    a_ = CMat(active, dim);
    v_ = CMat(dim, active);
    w_ = CMat(active, dim);
    f_.resize(active);
    std::size_t k = 0;
    for (const auto& sc : data) {
      const auto measured = setting_bases(set, sc.bases);
      for (std::size_t o = 0; o < sc.counts.size(); ++o) {
        if (sc.counts[o] == 0) continue;
        const CVec vec = outcome_vector(measured, o);
        for (std::size_t j = 0; j < dim; ++j) {
          a_.data()[k * dim + j] = std::conj(vec[j]);
          v_.data()[j * active + k] = vec[j];
        }
        f_[k++] = static_cast<double>(sc.counts[o]) / total_;
      }
    }
  }

  double total() const { return total_; }
  std::size_t size() const { return f_.size(); }
  double f(std::size_t k) const { return f_[k]; }

  /// out_k = Re⟨v_k|m|v_k⟩ for Hermitian m, from row k of W = A·m and row
  /// k of A (Re Σ_j W(k,j)·conj(A(k,j)), summed in real arithmetic).
  void diagonal(const CMat& m, std::vector<double>& out) {
    std::fill(w_.data(), w_.data() + w_.size(), cplx(0, 0));
    linalg::detail::gemm_dispatch(a_, m, w_);
    const std::size_t dim = a_.cols();
    for (std::size_t k = 0; k < size(); ++k) {
      const cplx* wk = w_.data() + k * dim;
      const cplx* ak = a_.data() + k * dim;
      double s = 0;
      for (std::size_t j = 0; j < dim; ++j)
        s += std::real(wk[j]) * std::real(ak[j]) + std::imag(wk[j]) * std::imag(ak[j]);
      out[k] = s;
    }
  }

  /// R = Σ_k f_k/p_k |v_k⟩⟨v_k| = V·diag(f/p)·A, minus the gradient of the
  /// negative log-likelihood per count at probabilities p.
  CMat r_operator(const std::vector<double>& p) {
    const std::size_t dim = a_.cols();
    for (std::size_t k = 0; k < size(); ++k) {
      const double c = f_[k] / p[k];
      const cplx* ak = a_.data() + k * dim;
      cplx* bk = w_.data() + k * dim;
      for (std::size_t j = 0; j < dim; ++j) bk[j] = ak[j] * c;
    }
    CMat r(dim, dim);
    linalg::detail::gemm_dispatch(v_, w_, r);
    return linalg::hermitian_part(r);
  }

  /// ⟨u|R|u⟩ = Σ_k f_k/p_k |⟨v_k|u⟩|² for R at probabilities p, in O(KD).
  double r_expectation(const std::vector<double>& p, const CVec& u) const {
    const std::size_t dim = a_.cols();
    double s = 0;
    for (std::size_t k = 0; k < size(); ++k) {
      const cplx* ak = a_.data() + k * dim;
      cplx vu = 0;
      for (std::size_t j = 0; j < dim; ++j) vu += ak[j] * u[j];
      s += f_[k] / p[k] * std::norm(vu);
    }
    return s;
  }

 private:
  CMat a_, v_, w_;
  std::vector<double> f_;
  double total_ = 0;
};

}  // namespace

MleResult maximum_likelihood(const std::vector<SettingCounts>& data, const BasisSet& set,
                             const MleOptions& opts) {
  const CMat seed = linear_inversion(data, set);
  const std::size_t dim = seed.rows();
  quantum::Dims dims(data.front().bases.size(), set.front().rows());
  if (opts.max_iterations < 0)
    throw std::invalid_argument("maximum_likelihood: negative max_iterations");
  if (!(opts.convergence_tol >= 0))
    throw std::invalid_argument("maximum_likelihood: convergence_tol must be >= 0");
  PackedLikelihood like(data, set, dim);
  if (like.total() <= 0) throw std::invalid_argument("maximum_likelihood: no counts");
  const std::size_t active = like.size();
  obs::SpanGuard span =
      obs::tracing_enabled() ? obs::SpanGuard("tomo.solve") : obs::SpanGuard();

  // Start from the projected linear inversion with a little identity mixed
  // in, so no outcome starts at zero probability.
  CMat x = linalg::project_to_density_matrix(seed);
  {
    CMat eye = CMat::identity(dim);
    eye *= cplx(1e-3 / static_cast<double>(dim), 0);
    x *= cplx(1.0 - 1e-3, 0);
    x += eye;
  }
  std::vector<double> px(active), p_prev(active), py(active), dp(active);
  like.diagonal(x, px);

  // The certificate at x bounds L* − L(x) per count: for any state σ,
  // Σ f_k log(⟨v_k|σ|v_k⟩/p_k) ≤ log Tr(R σ) ≤ log λ_max(R) (Jensen). It
  // takes R(x) and a full eigenvalue solve, because an estimate of λ_max
  // from below bounds nothing. Such an estimate can still prove that x is
  // not converged: ⟨u|R(x)|u⟩ with u the top eigenvector of the last
  // certificate costs O(KD), and while its log is above the tolerance the
  // certificate waits.
  CMat rx;
  CVec top(dim);
  double gap = 0;
  bool certified = false;  // gap is the certificate at x, and rx is R(x)
  const auto certify = [&] {
    rx = like.r_operator(px);
    const linalg::EigResult e = linalg::hermitian_eig(rx);
    gap = std::log(e.values.front());
    for (std::size_t j = 0; j < dim; ++j) top[j] = e.vectors(j, 0);
    certified = true;
  };
  certify();

  // Accelerated projected gradient on the negative log-likelihood per count
  // (Shang, Zhang and Ng, PRA 95, 062336, 2017): FISTA momentum from x to
  // the extrapolated point y, a backtracking step θ from y along R(y), and
  // a gradient restart (O'Donoghue and Candès) that drops the momentum when
  // the step turns against the last move. Probabilities are linear in ρ, so
  // p at y and at each accepted point follow from the step's dp = diag(A Δ A†)
  // alone.
  CMat x_prev = x, y = x;
  py = px;
  double momentum = 1, theta = 1;
  bool y_is_x = true;
  int iterations = 0;
  while (!(certified && gap <= opts.convergence_tol) && iterations < opts.max_iterations) {
    const CMat ry = y_is_x && certified ? rx : like.r_operator(py);

    // Backtracking: accept x_next = Proj(y + θ R(y)) once the likelihood
    // change, −Σ f_k log1p(dp_k/p_k) summed term by term, is at most its
    // linearisation −Σ f_k dp_k/p_k plus ‖Δ‖²/(2θ). A difference of two
    // O(1) likelihood sums would lose everything below √ε.
    CMat x_next, delta;
    bool accepted = false;
    for (int trial = 0; trial < 60; ++trial, theta *= 0.5) {
      CMat step = ry;
      step *= cplx(theta, 0);
      step += y;
      x_next = linalg::project_to_density_matrix(step);
      delta = x_next;
      delta -= y;
      like.diagonal(delta, dp);
      double excess = 0;
      bool positive = true;
      for (std::size_t k = 0; k < active && positive; ++k) {
        const double u = dp[k] / py[k];
        positive = u > -1;
        excess += like.f(k) * (u - std::log1p(u));
      }
      accepted = positive && excess <= std::real(linalg::trace_product(delta, delta)) / (2 * theta);
      if (accepted) break;
    }
    if (!accepted) break;  // no step of any size passes: stalled at round-off
    theta *= 1.4;          // let the next step try a longer one

    // Restart (O'Donoghue and Candès) when the gradient step y -> x_next
    // points against the move x -> x_next: the momentum overshot.
    CMat move = x_next;
    move -= x;
    const bool restart = std::real(linalg::trace_product(delta, move)) < 0;
    for (std::size_t k = 0; k < active; ++k) dp[k] += py[k];  // p at x_next
    x_prev = std::move(x);
    x = std::move(x_next);
    p_prev.swap(px);
    px.swap(dp);
    certified = false;
    if (!(std::log(like.r_expectation(px, top)) > opts.convergence_tol)) certify();
    ++iterations;

    double beta = 0;
    if (restart) {
      momentum = 1;
    } else {
      const double next = (1 + std::sqrt(1 + 4 * momentum * momentum)) / 2;
      beta = (momentum - 1) / next;
      momentum = next;
      // An extrapolated y with an outcome at zero probability has no
      // likelihood: restart instead.
      for (std::size_t k = 0; k < active && beta > 0; ++k)
        if (!(px[k] + beta * (px[k] - p_prev[k]) > 0)) beta = 0, momentum = 1;
    }
    if (beta > 0) {
      y = x_prev;
      y *= cplx(-beta, 0);
      CMat ahead = x;
      ahead *= cplx(1 + beta, 0);
      y += ahead;
      for (std::size_t k = 0; k < active; ++k) py[k] = px[k] + beta * (px[k] - p_prev[k]);
    } else {
      y = x;
      py = px;
    }
    y_is_x = !(beta > 0);
  }

  if (!certified) certify();
  like.diagonal(x, px);
  double ll = 0;
  for (std::size_t k = 0; k < active; ++k)
    ll += like.f(k) * like.total() * std::log(std::max(1e-300, px[k]));
  const bool converged = gap <= opts.convergence_tol;
  span.set_args({{"iterations", iterations}, {"gap", gap}, {"converged", converged}});
  return MleResult{quantum::DensityMatrix(std::move(x), std::move(dims), 1e-6), iterations,
                   converged, ll, gap};
}

// ------------------------------------------------------------------------
// Qubit Pauli path.

BasisSet pauli_bases(double phase_error_rad) {
  return {quantum::xy_basis(0.0 + phase_error_rad),
          quantum::xy_basis(photonics::pi / 2.0 + phase_error_rad), CMat::identity(2)};
}

std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           double shots_per_setting,
                                           const NoiseKnobs& noise, rng::Xoshiro256& g) {
  io::check_fields(noise, "NoiseKnobs");
  const double rms = noise.analyzer_phase_rms_rad;
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

MleResult maximum_likelihood(const std::vector<SettingCounts>& data,
                             const MleOptions& opts) {
  return maximum_likelihood(data, pauli_bases(), opts);
}

}  // namespace qfc::tomo
