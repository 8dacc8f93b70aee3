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

CMat hermitian_function(const CMat& a, double (*f)(double)) {
  const EigResult e = hermitian_eig(a);
  RVec mapped(e.values.size());
  for (std::size_t i = 0; i < mapped.size(); ++i) mapped[i] = f(e.values[i]);
  return rebuild(e, mapped);
}

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

CMat expm_hermitian(const CMat& a) { return hermitian_function(a, [](double x) { return std::exp(x); }); }

CMat project_to_density_matrix(const CMat& a) {
  a.require_square("project_to_density_matrix");
  const CMat h = hermitian_part(a);
  const EigResult e = hermitian_eig(h);
  const std::size_t n = e.values.size();

  // Normalize a positive trace to 1 first, then project eigenvalues onto the
  // simplex (Smolin et al., "Efficient method for computing the
  // maximum-likelihood quantum state from measurements with additive
  // Gaussian noise"). Dividing by a negative trace would reverse the
  // eigenvalue order, so such inputs go to the simplex projection as is.
  double tr = 0;
  for (double v : e.values) tr += v;
  RVec lam = e.values;
  if (tr > 1e-12)
    for (auto& v : lam) v /= tr;

  // Simplex projection on an index view sorted descending (lam itself must
  // keep its position to stay paired with its eigenvector).
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a_, std::size_t b_) { return lam[a_] > lam[b_]; });

  RVec out(n, 0.0);
  double acc = 0;
  std::size_t k = n;
  for (std::size_t i = 0; i < n; ++i) {
    acc += lam[idx[i]];
    const double water = (acc - 1.0) / static_cast<double>(i + 1);
    if (lam[idx[i]] - water <= 0) {
      k = i;
      acc -= lam[idx[i]];
      break;
    }
  }
  const double water = (acc - 1.0) / static_cast<double>(k == 0 ? 1 : k);
  for (std::size_t i = 0; i < k; ++i) out[idx[i]] = std::max(0.0, lam[idx[i]] - water);

  return rebuild(e, out);
}

}  // namespace qfc::linalg
