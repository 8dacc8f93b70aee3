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

/// The per-particle outcome table: row m = b·d + k holds the d² entries
/// (row-major) of |v_m⟩⟨v_m| − shift·I, with |v_m⟩ column k of basis b.
std::vector<cplx> outcome_operators(const BasisSet& set, double shift) {
  const std::size_t d = set.front().rows(), d2 = d * d;
  std::vector<cplx> op(set.size() * d * d2);
  for (std::size_t b = 0; b < set.size(); ++b)
    for (std::size_t k = 0; k < d; ++k)
      for (std::size_t i = 0; i < d; ++i)
        for (std::size_t j = 0; j < d; ++j)
          op[(b * d + k) * d2 + i * d + j] =
              set[b](i, k) * std::conj(set[b](j, k)) - (i == j ? shift : 0.0);
  return op;
}

/// Position of outcome o of setting sc in the tensor over the per-particle
/// (basis, outcome) indices (m_0, ..., m_{n-1}), m_q = b_q·d + o_q in
/// [0, m_count), particle 0 slowest.
std::size_t tensor_index(const SettingCounts& sc, std::size_t o, std::size_t d,
                         std::size_t m_count) {
  std::size_t m = 0, place = 1;
  for (std::size_t q = sc.bases.size(), rem = o; q-- > 0; rem /= d, place *= m_count)
    m += (sc.bases[q] * d + rem % d) * place;
  return m;
}

/// For each index of the tensor over per-particle entry pairs (i_0, j_0,
/// ..., i_{n-1}, j_{n-1}), particle 0 slowest, its row-major position in
/// the d^n x d^n matrix.
std::vector<std::size_t> entry_positions(std::size_t n, std::size_t d) {
  const std::size_t dim = power(d, n), d2 = d * d;
  std::vector<std::size_t> pos(power(d2, n));
  for (std::size_t idx = 0; idx < pos.size(); ++idx) {
    std::size_t i = 0, j = 0, place = 1;
    for (std::size_t q = n, rem = idx; q-- > 0; rem /= d2, place *= d) {
      i += rem % d2 / d * place;
      j += rem % d * place;
    }
    pos[idx] = i * dim + j;
  }
  return pos;
}

/// The one product-basis kernel: contract the tensor t over n per-particle
/// indices of size `in` (particle 0 slowest) with the per-particle map op
/// (in x out, row-major), one particle at a time. Index x_q becomes y_q at
/// the same position, weighted op[x_q·out + y_q].
void contract(std::vector<cplx>& t, std::size_t n, const std::vector<cplx>& op,
              std::size_t in, std::size_t out) {
  for (std::size_t q = 0, done = 1; q < n; ++q, done *= out) {
    const std::size_t rest = t.size() / (done * in);
    std::vector<cplx> next(done * out * rest);
    for (std::size_t p = 0; p < done; ++p)
      for (std::size_t x = 0; x < in; ++x)
        for (std::size_t r = 0; r < rest; ++r) {
          const cplx f = t[(p * in + x) * rest + r];
          for (std::size_t y = 0; y < out; ++y)
            next[(p * out + y) * rest + r] += f * op[x * out + y];
        }
    t.swap(next);
  }
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
  if (set.empty()) throw std::invalid_argument("tomography: empty basis set");
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
  const std::size_t d = set.front().rows(), m_count = set.size() * d;
  if (set.size() != d + 1)
    throw std::invalid_argument("linear_inversion: need a complete set of d + 1 bases");
  // The frequencies f(o|s) as a tensor over (m_0, ..., m_{n-1}); a setting
  // with no counts contributes nothing.
  std::vector<cplx> t(power(m_count, n));
  for (const auto& sc : data) {
    const double total = static_cast<double>(sc.total());
    if (total <= 0) continue;
    for (std::size_t o = 0; o < sc.counts.size(); ++o)
      t[tensor_index(sc, o, d, m_count)] = static_cast<double>(sc.counts[o]) / total;
  }
  // Each m_q becomes the entry pair (i_q, j_q) of the dual frame element
  // |v_m⟩⟨v_m| − I/(d+1).
  contract(t, n, outcome_operators(set, 1.0 / (d + 1)), m_count, d * d);
  const std::size_t dim = power(d, n);
  CMat rho(dim, dim);
  const std::vector<std::size_t> pos = entry_positions(n, d);
  for (std::size_t idx = 0; idx < t.size(); ++idx) rho.data()[pos[idx]] = t[idx];
  return rho;
}

namespace {

/// The likelihood over the outcomes with counts, as weights on the
/// (basis, outcome) tensor that linear_inversion contracts: outcome k with
/// counts sits at index_[k] with f_k = n_k/N, and every other entry, the
/// zero-count outcomes included, weighs 0. R and p are the forward and the
/// adjoint contraction with the plain projectors |v_m⟩⟨v_m|.
class Likelihood {
 public:
  Likelihood(const std::vector<SettingCounts>& data, const BasisSet& set, std::size_t n)
      : n_(n),
        d_(set.front().rows()),
        m_count_(set.size() * d_),
        ops_(outcome_operators(set, 0.0)),
        adjoint_(ops_.size()),
        pos_(entry_positions(n, d_)) {
    const std::size_t d2 = d_ * d_;
    for (std::size_t m = 0; m < m_count_; ++m)
      for (std::size_t e = 0; e < d2; ++e) adjoint_[e * m_count_ + m] = std::conj(ops_[m * d2 + e]);
    for (const auto& sc : data)
      for (std::uint64_t c : sc.counts) total_ += static_cast<double>(c);
    for (const auto& sc : data)
      for (std::size_t o = 0; o < sc.counts.size(); ++o) {
        if (sc.counts[o] == 0) continue;
        index_.push_back(tensor_index(sc, o, d_, m_count_));
        f_.push_back(static_cast<double>(sc.counts[o]) / total_);
      }
  }

  double total() const { return total_; }
  std::size_t size() const { return f_.size(); }
  double f(std::size_t k) const { return f_[k]; }

  /// out_k = Re⟨v_k|m|v_k⟩ for Hermitian m: m's entries contracted against
  /// the conjugate of every outcome's projector.
  void diagonal(const CMat& m, std::vector<double>& out) const {
    std::vector<cplx> t(pos_.size());
    for (std::size_t idx = 0; idx < t.size(); ++idx) t[idx] = m.data()[pos_[idx]];
    contract(t, n_, adjoint_, d_ * d_, m_count_);
    for (std::size_t k = 0; k < size(); ++k) out[k] = std::real(t[index_[k]]);
  }

  /// R = Σ_k f_k/p_k |v_k⟩⟨v_k|, minus the gradient of the negative
  /// log-likelihood per count at probabilities p.
  CMat r_operator(const std::vector<double>& p) const {
    std::vector<cplx> t(power(m_count_, n_));
    for (std::size_t k = 0; k < size(); ++k) t[index_[k]] = f_[k] / p[k];
    contract(t, n_, ops_, m_count_, d_ * d_);
    const std::size_t dim = power(d_, n_);
    CMat r(dim, dim);
    for (std::size_t idx = 0; idx < t.size(); ++idx) r.data()[pos_[idx]] = t[idx];
    return linalg::hermitian_part(r);
  }

 private:
  std::size_t n_, d_, m_count_;
  std::vector<cplx> ops_, adjoint_;  ///< m_count x d², and its conjugate transpose
  std::vector<std::size_t> pos_, index_;
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
  Likelihood like(data, set, dims.size());
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
  // takes a full eigenvalue solve of R(x), because an estimate of λ_max
  // from below bounds nothing. Such an estimate can still prove that x is
  // not converged: ⟨u|R(x)|u⟩ with u the top eigenvector of the last
  // certificate costs O(D²), and while its log is above the tolerance the
  // certificate waits. R(x) is kept: it is the next step's gradient when
  // y = x.
  CMat rx = like.r_operator(px);
  CVec top(dim);
  double gap = 0;
  bool certified = false;  // gap is the certificate at x
  const auto certify = [&] {
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
  // p at y and at each accepted point follow from the step's
  // dp_k = ⟨v_k|Δ|v_k⟩ alone.
  CMat x_prev = x, y = x;
  py = px;
  double momentum = 1, theta = 1;
  bool y_is_x = true;
  int iterations = 0;
  while (!(certified && gap <= opts.convergence_tol) && iterations < opts.max_iterations) {
    const CMat ry = y_is_x ? rx : like.r_operator(py);

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
    rx = like.r_operator(px);
    certified = false;
    if (!(std::log(std::real(linalg::vdot(top, rx * top))) > opts.convergence_tol)) certify();
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
