#include "qfc/linalg/matrix_functions.hpp"

#include <algorithm>
#include <cmath>

#include "qfc/linalg/backend.hpp"
#include "qfc/linalg/error.hpp"
#include "qfc/linalg/hermitian_eig.hpp"

namespace qfc::linalg {

namespace {

CMat rebuild(const EigResult& e, const RVec& mapped) {
  return detail::blocked_scaled_congruence(e.vectors, mapped);
}

}  // namespace

CMat sqrtm_psd(const CMat& a, double clip_tol) {
  const EigResult e = hermitian_eig(a);
  RVec mapped(e.values.size());
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    double v = e.values[i];
    if (v < 0) {
      if (v < -clip_tol)
        throw NumericalError("sqrtm_psd: matrix has a significantly negative eigenvalue");
      v = 0;
    }
    mapped[i] = std::sqrt(v);
  }
  return rebuild(e, mapped);
}

CMat project_to_density_matrix(const CMat& a) {
  a.require_square("project_to_density_matrix");
  const CMat h = hermitian_part(a);
  const EigResult e = hermitian_eig(h);
  const std::size_t n = e.values.size();

  // The nearest unit-trace PSD matrix keeps the eigenvectors and projects
  // the eigenvalues onto the probability simplex (Smolin, Gambetta and
  // Smith, PRL 108, 070502, 2012): subtract one water level from every
  // eigenvalue and clip at zero, with the level that restores trace 1. The
  // eigenvalues come sorted descending; the level is set by the largest k
  // that stay positive.
  const RVec& lam = e.values;
  double acc = 0, water = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double level = (acc + lam[k] - 1.0) / static_cast<double>(k + 1);
    if (lam[k] - level <= 0) break;
    acc += lam[k];
    water = level;
  }
  RVec out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = std::max(0.0, lam[i] - water);

  return rebuild(e, out);
}

}  // namespace qfc::linalg
