#include "qfc/linalg/hermitian_eig.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "qfc/linalg/backend.hpp"
#include "qfc/linalg/error.hpp"
#include "qfc/obs/obs.hpp"

namespace qfc::linalg {
namespace {

using detail::off_diag_norm2;

/// One cyclic Jacobi sweep on Hermitian `a`, accumulating rotations into `v`
/// when v != nullptr. Each rotation zeroes a(p,q) exactly. Returns the
/// number of rotations applied (skipped negligible pivots excluded).
std::uint64_t jacobi_sweep(CMat& a, CMat* v) {
  std::uint64_t rotations = 0;
  const std::size_t n = a.rows();
  for (std::size_t p = 0; p + 1 < n; ++p) {
    for (std::size_t q = p + 1; q < n; ++q) {
      const cplx apq = a(p, q);
      const double mag = std::abs(apq);
      if (mag < 1e-300) continue;
      ++rotations;

      const auto [c, sp] =
          detail::jacobi_params(std::real(a(p, p)), std::real(a(q, q)), apq, mag);

      // Apply A <- J† A J with J acting on columns/rows p,q:
      //   col_p' =  c*col_p + conj(sp)... — implemented element-wise below.
      for (std::size_t k = 0; k < n; ++k) {
        const cplx akp = a(k, p);
        const cplx akq = a(k, q);
        a(k, p) = c * akp - std::conj(sp) * akq;
        a(k, q) = sp * akp + c * akq;
      }
      for (std::size_t k = 0; k < n; ++k) {
        const cplx apk = a(p, k);
        const cplx aqk = a(q, k);
        a(p, k) = c * apk - sp * aqk;
        a(q, k) = std::conj(sp) * apk + c * aqk;
      }
      // Clean up round-off on the zeroed pair and enforce real diagonal.
      a(p, q) = cplx(0, 0);
      a(q, p) = cplx(0, 0);
      a(p, p) = cplx(std::real(a(p, p)), 0);
      a(q, q) = cplx(std::real(a(q, q)), 0);

      if (v != nullptr) {
        for (std::size_t k = 0; k < n; ++k) {
          const cplx vkp = (*v)(k, p);
          const cplx vkq = (*v)(k, q);
          (*v)(k, p) = c * vkp - std::conj(sp) * vkq;
          (*v)(k, q) = sp * vkp + c * vkq;
        }
      }
    }
  }
  return rotations;
}

}  // namespace

namespace detail {

EigResult finalize_eig(const CMat& diagonalized, const CMat& vectors, bool want_vectors) {
  const std::size_t n = diagonalized.rows();
  EigResult res;
  res.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.values[i] = std::real(diagonalized(i, i));

  // Sort descending, permuting eigenvector columns alongside.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return res.values[x] > res.values[y]; });

  RVec sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = res.values[order[i]];
  res.values = std::move(sorted);

  if (want_vectors) {
    res.vectors = CMat(n, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) res.vectors(i, j) = vectors(i, order[j]);
  }
  return res;
}

void validate_eig_input(const CMat& a, double hermiticity_tol, const char* who) {
  a.require_square(who);
  a.require_finite(who);
  if (!is_hermitian(a, hermiticity_tol))
    throw std::invalid_argument(std::string(who) + ": input is not Hermitian");
}

EigResult reference_hermitian_eig(const CMat& input, const EigOptions& opt) {
  const std::size_t n = input.rows();
  QFC_OBS_SPAN("linalg.eig.reference", {{"n", n}});
  CMat a = hermitian_part(input);  // symmetrize away round-off
  CMat v = opt.want_vectors ? CMat::identity(n) : CMat();

  const double stop =
      detail::jacobi_stop_threshold(std::max(a.frobenius_norm(), 1e-300), n);

  std::uint64_t sweeps_done = 0, rotations_done = 0;
  bool converged = false;
  for (int sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    if (off_diag_norm2(a) <= stop) {
      converged = true;
      break;
    }
    ++sweeps_done;
    rotations_done += jacobi_sweep(a, opt.want_vectors ? &v : nullptr);
  }
  if (!converged && off_diag_norm2(a) > stop)
    throw NumericalError("hermitian_eig: Jacobi did not converge");

  if (obs::metrics_enabled()) {
    obs::counter("linalg.reference.eig.calls").increment();
    obs::counter("linalg.reference.eig.sweeps").add(sweeps_done);
    obs::counter("linalg.reference.eig.rotations").add(rotations_done);
  }
  return finalize_eig(a, v, opt.want_vectors);
}

}  // namespace detail

// Public entry points: validate once, then run the Blocked eigensolver.

EigResult hermitian_eig(const CMat& a, int max_sweeps, double hermiticity_tol) {
  detail::validate_eig_input(a, hermiticity_tol, "hermitian_eig");
  QFC_OBS_SPAN("linalg.eig", {{"n", a.rows()}});
  EigOptions opt;
  opt.max_sweeps = max_sweeps;
  opt.want_vectors = true;
  return detail::blocked_hermitian_eig(a, opt);
}

RVec hermitian_eigenvalues(const CMat& a, int max_sweeps) {
  detail::validate_eig_input(a, 1e-9, "hermitian_eigenvalues");
  QFC_OBS_SPAN("linalg.eig", {{"n", a.rows()}});
  EigOptions opt;
  opt.max_sweeps = max_sweeps;
  opt.want_vectors = false;
  return detail::blocked_hermitian_eig(a, opt).values;
}

}  // namespace qfc::linalg
