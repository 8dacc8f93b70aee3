#include "qfc/linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "qfc/linalg/backend.hpp"
#include "qfc/linalg/error.hpp"
#include "qfc/obs/obs.hpp"

namespace qfc::linalg {
namespace {

/// One-sided Jacobi on columns of `w` (m x n, m >= n not required),
/// accumulating right rotations into `v` (n x n). After convergence the
/// columns of `w` are mutually orthogonal: w = U Σ, original A = w v†... –
/// precisely, A v = w, so A = w v† with unitary v.
void orthogonalize_columns(CMat& w, CMat& v, int max_sweeps) {
  const std::size_t n = w.cols();
  const std::size_t m = w.rows();

  std::uint64_t sweeps_done = 0, rotations_done = 0;
  const auto flush_counts = [&] {
    if (!obs::metrics_enabled()) return;
    obs::counter("linalg.reference.svd.sweeps").add(sweeps_done);
    obs::counter("linalg.reference.svd.rotations").add(rotations_done);
  };
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    ++sweeps_done;
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Gram entries of columns p,q.
        double app = 0, aqq = 0;
        cplx apq(0, 0);
        for (std::size_t k = 0; k < m; ++k) {
          app += std::norm(w(k, p));
          aqq += std::norm(w(k, q));
          apq += std::conj(w(k, p)) * w(k, q);
        }
        const double mag = std::abs(apq);
        const double threshold = 1e-15 * std::sqrt(app * aqq);
        if (mag <= threshold || mag < 1e-300) continue;
        rotated = true;
        ++rotations_done;

        const auto [c, sp] = detail::jacobi_params(app, aqq, apq, mag);

        for (std::size_t k = 0; k < m; ++k) {
          const cplx wkp = w(k, p);
          const cplx wkq = w(k, q);
          w(k, p) = c * wkp - std::conj(sp) * wkq;
          w(k, q) = sp * wkp + c * wkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const cplx vkp = v(k, p);
          const cplx vkq = v(k, q);
          v(k, p) = c * vkp - std::conj(sp) * vkq;
          v(k, q) = sp * vkp + c * vkq;
        }
      }
    }
    if (!rotated) {
      flush_counts();
      return;
    }
  }
  throw NumericalError("svd: one-sided Jacobi did not converge");
}

}  // namespace

namespace detail {

SvdResult reference_svd(const CMat& a, int max_sweeps) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Work on the orientation with fewer columns for efficiency/stability,
  // then swap factors back: A† = V Σ U†.
  if (n > m) {
    SvdResult t = reference_svd(a.adjoint(), max_sweeps);
    return SvdResult{std::move(t.v), std::move(t.sigma), std::move(t.u)};
  }

  QFC_OBS_SPAN("linalg.svd.reference", {{"m", m}, {"n", n}});
  if (obs::metrics_enabled()) obs::counter("linalg.reference.svd.calls").increment();
  CMat w = a;
  CMat v = CMat::identity(n);
  orthogonalize_columns(w, v, max_sweeps);

  // Column norms are the singular values.
  RVec sigma(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0;
    for (std::size_t i = 0; i < m; ++i) s += std::norm(w(i, j));
    sigma[j] = std::sqrt(s);
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });

  SvdResult res;
  res.sigma.resize(n);
  res.u = CMat(m, n);
  res.v = CMat(n, n);
  const double smax = sigma.empty() ? 0.0 : sigma[order[0]];
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    res.sigma[j] = sigma[src];
    if (sigma[src] > 1e-14 * std::max(smax, 1.0)) {
      for (std::size_t i = 0; i < m; ++i) res.u(i, j) = w(i, src) / sigma[src];
    } else {
      // Null direction: leave U column zero (thin SVD consumers only use
      // columns with nonzero sigma); keep sigma as the tiny value.
      for (std::size_t i = 0; i < m; ++i) res.u(i, j) = cplx(0, 0);
    }
    for (std::size_t i = 0; i < n; ++i) res.v(i, j) = v(i, src);
  }
  return res;
}

}  // namespace detail

SvdResult svd(const CMat& a, int max_sweeps) {
  if (a.empty()) throw std::invalid_argument("svd: empty matrix");
  a.require_finite("svd");
  QFC_OBS_SPAN("linalg.svd", {{"n", a.cols()}});
  return detail::blocked_svd(a, max_sweeps);
}

}  // namespace qfc::linalg
