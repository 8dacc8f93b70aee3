#include "qfc/linalg/backend.hpp"

#include <cmath>

#include "qfc/obs/obs.hpp"

namespace qfc::linalg {
namespace detail {

// Nominal flop count of an m x k by k x n complex product: each complex
// multiply-add is 4 real multiplies + 4 real adds, 8mkn in all. Counted
// where a concrete kernel runs, so blocked_gemm with SIMD off bills as
// reference.
std::uint64_t gemm_flops(std::size_t m, std::size_t k, std::size_t n) {
  return 8ull * m * k * n;
}

// One complex multiply per output element: 6 real flops (4 mul + 2 add).
std::uint64_t kron_flops(std::size_t out_elems) { return 6ull * out_elems; }

JacobiParams jacobi_params(double app, double aqq, cplx apq, double mag) {
  // Phase so that e^{-i phi} * apq is real positive, then the classic
  // Jacobi angle: tan(2 theta) = 2|apq| / (app - aqq).
  const cplx phase = apq / mag;
  const double tau = (aqq - app) / (2.0 * mag);
  const double t = (tau >= 0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
  JacobiParams jp;
  jp.c = 1.0 / std::sqrt(1.0 + t * t);
  jp.sp = (t * jp.c) * phase;
  return jp;
}

double off_diag_norm2(const CMat& a) {
  double s = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (i != j) s += std::norm(a(i, j));
  return s;
}

double jacobi_stop_threshold(double scale, std::size_t n) {
  return (1e-14 * scale) * (1e-14 * scale) * static_cast<double>(n * n);
}

void reference_gemm(const CMat& a, const CMat& b, CMat& c) {
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  if (obs::metrics_enabled()) {
    obs::counter("linalg.reference.gemm.calls").increment();
    obs::counter("linalg.reference.gemm.flops").add(gemm_flops(m, kk, n));
  }
  // ikj order with a zero-skip on a(i,k): many quantum-layer operands
  // (Paulis, Weyl shifts, projectors) are structurally sparse.
  const cplx* pa = a.data();
  const cplx* pb = b.data();
  cplx* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < kk; ++k) {
      const cplx aik = pa[i * kk + k];
      if (aik == cplx{}) continue;
      const cplx* brow = pb + k * n;
      cplx* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void reference_kron(const CMat& a, const CMat& b, CMat& out) {
  if (obs::metrics_enabled()) {
    obs::counter("linalg.reference.kron.calls").increment();
    obs::counter("linalg.reference.kron.flops").add(kron_flops(out.size()));
  }
  // Same arithmetic as the inline template in matrix.hpp: one multiply per
  // element, structural zeros of `a` skipped (their output block stays 0).
  const std::size_t rb = b.rows(), cb = b.cols(), cols = out.cols();
  const cplx* pb = b.data();
  cplx* po = out.data();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const cplx aij = a(i, j);
      if (aij == cplx{}) continue;
      for (std::size_t k = 0; k < rb; ++k) {
        const cplx* brow = pb + k * cb;
        cplx* orow = po + (i * rb + k) * cols + j * cb;
        for (std::size_t l = 0; l < cb; ++l) orow[l] = aij * brow[l];
      }
    }
}

CMat reference_scaled_congruence(const CMat& v, const RVec& d) {
  const std::size_t n = d.size();
  CMat out(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      cplx s(0, 0);
      for (std::size_t k = 0; k < n; ++k)
        s += v(i, k) * d[k] * std::conj(v(j, k));
      out(i, j) = s;
    }
  return out;
}

// gemm_dispatch / kron_dispatch (declared in matrix.hpp) are the seams
// complex Mat::operator* and kron() call above their inline cutoffs.
void gemm_dispatch(const CMat& a, const CMat& b, CMat& c) { blocked_gemm(a, b, c); }
void kron_dispatch(const CMat& a, const CMat& b, CMat& out) { blocked_kron(a, b, out); }

}  // namespace detail

BackendKind default_backend() { return BackendKind::Blocked; }

const char* to_string(BackendKind kind) {
  return kind == BackendKind::Blocked ? "blocked" : "reference";
}

}  // namespace qfc::linalg
