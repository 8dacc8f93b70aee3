#pragma once

/// \file matrix.hpp
/// Dense row-major matrix over real or complex scalars, plus the small set
/// of vector helpers used throughout the library. Hand-rolled on purpose:
/// the quantum-state dimensions in this project are modest (<= a few
/// hundred), so a simple, exhaustively-tested implementation beats an
/// external dependency. Large matrix products run the cache-blocked SIMD
/// kernels declared in backend.hpp.

#include <cmath>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace qfc::linalg {

using cplx = std::complex<double>;
using CVec = std::vector<cplx>;
using RVec = std::vector<double>;

template <class T>
class Mat;

namespace detail {
inline double conj_if_complex(double x) { return x; }
inline cplx conj_if_complex(const cplx& x) { return std::conj(x); }
inline double abs2(double x) { return x * x; }
inline double abs2(const cplx& x) { return std::norm(x); }

/// c = a·b through detail::blocked_gemm (see backend.hpp); c must be
/// zero-initialized (kernels may accumulate into it or overwrite it).
void gemm_dispatch(const Mat<cplx>& a, const Mat<cplx>& b, Mat<cplx>& c);

/// out = a ⊗ b through detail::blocked_kron; out is pre-sized and
/// zero-initialized.
void kron_dispatch(const Mat<cplx>& a, const Mat<cplx>& b, Mat<cplx>& out);
}  // namespace detail

/// Dense row-major matrix. T is double or std::complex<double>.
template <class T>
class Mat {
 public:
  Mat() = default;

  Mat(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  /// Construct from nested initializer list: Mat<double>{{1,2},{3,4}}.
  Mat(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      if (r.size() != cols_) throw std::invalid_argument("Mat: ragged initializer");
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  static Mat identity(std::size_t n) {
    Mat m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  static Mat zeros(std::size_t r, std::size_t c) { return Mat(r, c); }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  bool is_square() const noexcept { return rows_ == cols_; }

  T& operator()(std::size_t i, std::size_t j) {
    check_index(i, j);
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    check_index(i, j);
    return data_[i * cols_ + j];
  }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }
  const std::vector<T>& storage() const noexcept { return data_; }

  Mat& operator+=(const Mat& o) {
    check_same_shape(o);
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += o.data_[k];
    return *this;
  }
  Mat& operator-=(const Mat& o) {
    check_same_shape(o);
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= o.data_[k];
    return *this;
  }
  Mat& operator*=(T s) {
    for (auto& x : data_) x *= s;
    return *this;
  }

  friend Mat operator+(Mat a, const Mat& b) { return a += b; }
  friend Mat operator-(Mat a, const Mat& b) { return a -= b; }
  friend Mat operator*(Mat a, T s) { return a *= s; }
  friend Mat operator*(T s, Mat a) { return a *= s; }

  friend Mat operator*(const Mat& a, const Mat& b) {
    if (a.cols_ != b.rows_) throw std::invalid_argument("Mat::mul: shape mismatch");
    Mat c(a.rows_, b.cols_);
    // Tiny complex products (gates, Paulis, few-level ops) keep the fully
    // inlined loop — the cross-TU call would cost more than the flops. The
    // loop is identical to the reference ikj kernel, so results do not
    // depend on which side of the cutoff a product lands. Real products
    // (small least-squares design matrices) always take the loop.
    if constexpr (std::is_same_v<T, cplx>) {
      if (a.rows_ * a.cols_ * b.cols_ > 4096) {
        detail::gemm_dispatch(a, b, c);
        return c;
      }
    }
    for (std::size_t i = 0; i < a.rows_; ++i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) c(i, j) += aik * b(k, j);
      }
    }
    return c;
  }

  /// Matrix-vector product.
  friend std::vector<T> operator*(const Mat& a, const std::vector<T>& x) {
    if (a.cols_ != x.size()) throw std::invalid_argument("Mat::matvec: shape mismatch");
    std::vector<T> y(a.rows_, T{});
    for (std::size_t i = 0; i < a.rows_; ++i)
      for (std::size_t j = 0; j < a.cols_; ++j) y[i] += a(i, j) * x[j];
    return y;
  }

  Mat transpose() const {
    Mat t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
  }

  /// Conjugate transpose (== transpose for real T).
  Mat adjoint() const {
    Mat t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) t(j, i) = detail::conj_if_complex((*this)(i, j));
    return t;
  }

  Mat conj() const {
    Mat c = *this;
    for (auto& x : c.data_) x = detail::conj_if_complex(x);
    return c;
  }

  T trace() const {
    require_square("trace");
    T s{};
    for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
    return s;
  }

  double frobenius_norm() const {
    double s = 0;
    for (const auto& x : data_) s += detail::abs2(x);
    return std::sqrt(s);
  }

  double max_abs() const {
    double m = 0;
    for (const auto& x : data_) m = std::max(m, std::abs(x));
    return m;
  }

  bool operator==(const Mat& o) const = default;

  void require_square(const char* who) const {
    if (!is_square()) throw std::invalid_argument(std::string(who) + ": matrix not square");
  }

  /// Throws std::invalid_argument naming `who` if any entry is NaN or ±Inf.
  void require_finite(const char* who) const {
    for (const T& x : data_)
      if (!std::isfinite(std::real(x)) || !std::isfinite(std::imag(x)))
        throw std::invalid_argument(std::string(who) + ": non-finite entry");
  }

 private:
  void check_index(std::size_t i, std::size_t j) const {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Mat: index out of range");
  }
  void check_same_shape(const Mat& o) const {
    if (rows_ != o.rows_ || cols_ != o.cols_)
      throw std::invalid_argument("Mat: shape mismatch");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using CMat = Mat<cplx>;
using RMat = Mat<double>;

/// Kronecker (tensor) product: (a ⊗ b)(i*rb+k, j*cb+l) = a(i,j)*b(k,l).
/// Large complex products run detail::blocked_kron (SIMD-scaled row
/// copies); every path computes each element with the same single multiply,
/// so the result is bitwise identical on either side of the cutoff and to
/// detail::reference_kron.
template <class T>
Mat<T> kron(const Mat<T>& a, const Mat<T>& b) {
  Mat<T> out(a.rows() * b.rows(), a.cols() * b.cols());
  if constexpr (std::is_same_v<T, cplx>) {
    if (out.size() > 1024) {
      detail::kron_dispatch(a, b, out);
      return out;
    }
  }
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const T aij = a(i, j);
      if (aij == T{}) continue;
      for (std::size_t k = 0; k < b.rows(); ++k)
        for (std::size_t l = 0; l < b.cols(); ++l)
          out(i * b.rows() + k, j * b.cols() + l) = aij * b(k, l);
    }
  return out;
}

/// Kronecker product of vectors.
template <class T>
std::vector<T> kron(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out(a.size() * b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) out[i * b.size() + j] = a[i] * b[j];
  return out;
}

/// Tr(a b) as an elementwise sum — O(n²) instead of the O(n³) matmul;
/// the hot path of every probability/expectation evaluation.
template <class T>
T trace_product(const Mat<T>& a, const Mat<T>& b) {
  if (a.cols() != b.rows() || a.rows() != b.cols())
    throw std::invalid_argument("trace_product: shape mismatch");
  T s{};
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * b(j, i);
  return s;
}

/// Inner product <a|b> = sum conj(a_i) b_i (plain dot for real T).
template <class T>
T vdot(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("vdot: size mismatch");
  T s{};
  for (std::size_t i = 0; i < a.size(); ++i) s += detail::conj_if_complex(a[i]) * b[i];
  return s;
}

/// Euclidean norm of a vector.
template <class T>
double vnorm(const std::vector<T>& v) {
  double s = 0;
  for (const auto& x : v) s += detail::abs2(x);
  return std::sqrt(s);
}

/// Normalize in place; throws on (near-)zero vectors.
template <class T>
void vnormalize(std::vector<T>& v) {
  const double n = vnorm(v);
  if (n < 1e-300) throw std::invalid_argument("vnormalize: zero vector");
  for (auto& x : v) x *= (1.0 / n);
}

/// Outer product |a><b| (b is conjugated for complex T).
template <class T>
Mat<T> outer(const std::vector<T>& a, const std::vector<T>& b) {
  Mat<T> m(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j)
      m(i, j) = a[i] * detail::conj_if_complex(b[j]);
  return m;
}

/// Hermitian part (A + A†)/2.
CMat hermitian_part(const CMat& a);

/// True if ||A - A†||_max <= tol.
bool is_hermitian(const CMat& a, double tol = 1e-10);

/// True if ||A†A - I||_max <= tol.
bool is_unitary(const CMat& a, double tol = 1e-10);

}  // namespace qfc::linalg
