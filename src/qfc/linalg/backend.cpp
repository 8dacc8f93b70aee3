#include "qfc/linalg/backend.hpp"

#include <cmath>
#include <string>

#include "qfc/obs/obs.hpp"

namespace qfc::linalg {
namespace detail {

// Nominal flop count of an m x k by k x n product: 2mkn real flops, with a
// 4x factor for complex (each complex multiply-add is 4 real multiplies +
// 4 real adds ~ 8 flops vs 2). Counted where a concrete kernel runs, so
// blocked_gemm's fallback to the reference kernel bills as reference.
std::uint64_t gemm_flops(std::size_t m, std::size_t k, std::size_t n, bool is_complex) {
  const std::uint64_t base = 2ull * m * k * n;
  return is_complex ? 4ull * base : base;
}

// One multiply per output element: 6 real flops for a complex multiply
// (4 mul + 2 add), 1 for real.
std::uint64_t kron_flops(std::size_t out_elems, bool is_complex) {
  return (is_complex ? 6ull : 1ull) * out_elems;
}

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

template <class T>
void reference_gemm_impl(const Mat<T>& a, const Mat<T>& b, Mat<T>& c) {
  // ikj order with a zero-skip on a(i,k): many quantum-layer operands
  // (Paulis, Weyl shifts, projectors) are structurally sparse.
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  const T* pa = a.data();
  const T* pb = b.data();
  T* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < kk; ++k) {
      const T aik = pa[i * kk + k];
      if (aik == T{}) continue;
      const T* brow = pb + k * n;
      T* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

namespace {

void count_reference_gemm(std::size_t m, std::size_t k, std::size_t n, bool is_complex) {
  if (!obs::metrics_enabled()) return;
  obs::counter("linalg.reference.gemm.calls").increment();
  obs::counter("linalg.reference.gemm.flops").add(gemm_flops(m, k, n, is_complex));
}

}  // namespace

void reference_gemm(const RMat& a, const RMat& b, RMat& c) {
  count_reference_gemm(a.rows(), a.cols(), b.cols(), false);
  reference_gemm_impl(a, b, c);
}
void reference_gemm(const CMat& a, const CMat& b, CMat& c) {
  count_reference_gemm(a.rows(), a.cols(), b.cols(), true);
  reference_gemm_impl(a, b, c);
}

template <class T>
void reference_kron_impl(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  // Same arithmetic as the inline template in matrix.hpp: one multiply per
  // element, structural zeros of `a` skipped (their output block stays 0).
  const std::size_t rb = b.rows(), cb = b.cols(), cols = out.cols();
  const T* pb = b.data();
  T* po = out.data();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const T aij = a(i, j);
      if (aij == T{}) continue;
      for (std::size_t k = 0; k < rb; ++k) {
        const T* brow = pb + k * cb;
        T* orow = po + (i * rb + k) * cols + j * cb;
        for (std::size_t l = 0; l < cb; ++l) orow[l] = aij * brow[l];
      }
    }
}

namespace {

void count_kron(const char* backend_name, std::size_t out_elems, bool is_complex) {
  if (!obs::metrics_enabled()) return;
  obs::counter(std::string("linalg.") + backend_name + ".kron.calls").increment();
  obs::counter(std::string("linalg.") + backend_name + ".kron.flops")
      .add(kron_flops(out_elems, is_complex));
}

}  // namespace

void reference_kron(const RMat& a, const RMat& b, RMat& out) {
  count_kron("reference", out.size(), false);
  reference_kron_impl(a, b, out);
}
void reference_kron(const CMat& a, const CMat& b, CMat& out) {
  count_kron("reference", out.size(), true);
  reference_kron_impl(a, b, out);
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
// Mat<T>::operator* and kron() call above their inline cutoffs; only the
// two scalar types used in the library exist.
template <>
void gemm_dispatch<double>(const RMat& a, const RMat& b, RMat& c) {
  blocked_gemm(a, b, c);
}
template <>
void gemm_dispatch<cplx>(const CMat& a, const CMat& b, CMat& c) {
  blocked_gemm(a, b, c);
}
template <>
void kron_dispatch<double>(const RMat& a, const RMat& b, RMat& out) {
  blocked_kron(a, b, out);
}
template <>
void kron_dispatch<cplx>(const CMat& a, const CMat& b, CMat& out) {
  blocked_kron(a, b, out);
}

}  // namespace detail

BackendKind default_backend() { return BackendKind::Blocked; }

const char* to_string(BackendKind kind) {
  return kind == BackendKind::Blocked ? "blocked" : "reference";
}

}  // namespace qfc::linalg
