#include "qfc/linalg/solve.hpp"

#include <cmath>

#include "qfc/linalg/error.hpp"

namespace qfc::linalg {

RVec least_squares(const RMat& a, const RVec& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (b.size() != m) throw std::invalid_argument("least_squares: size mismatch");
  if (m < n) throw std::invalid_argument("least_squares: underdetermined system");

  // Householder QR, transforming b alongside.
  RMat r = a;
  RVec y = b;
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0;
    for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-300) throw NumericalError("least_squares: rank-deficient matrix");
    const double alpha = (r(k, k) > 0) ? -norm : norm;

    RVec v(m, 0.0);
    for (std::size_t i = k; i < m; ++i) v[i] = r(i, k);
    v[k] -= alpha;
    double vnorm2 = 0;
    for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
    if (vnorm2 < 1e-300) continue;

    for (std::size_t j = k; j < n; ++j) {
      double dot = 0;
      for (std::size_t i = k; i < m; ++i) dot += v[i] * r(i, j);
      const double f = 2.0 * dot / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= f * v[i];
    }
    double dotb = 0;
    for (std::size_t i = k; i < m; ++i) dotb += v[i] * y[i];
    const double fb = 2.0 * dotb / vnorm2;
    for (std::size_t i = k; i < m; ++i) y[i] -= fb * v[i];
  }

  RVec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= r(ii, j) * x[j];
    if (std::abs(r(ii, ii)) < 1e-300)
      throw NumericalError("least_squares: rank-deficient matrix");
    x[ii] = s / r(ii, ii);
  }
  return x;
}

}  // namespace qfc::linalg
