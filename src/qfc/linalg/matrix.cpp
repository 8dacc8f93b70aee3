#include "qfc/linalg/matrix.hpp"

namespace qfc::linalg {

CMat hermitian_part(const CMat& a) {
  a.require_square("hermitian_part");
  CMat h = a;
  h += a.adjoint();
  h *= cplx(0.5, 0.0);
  return h;
}

bool is_hermitian(const CMat& a, double tol) {
  if (!a.is_square()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = i; j < a.cols(); ++j)
      if (std::abs(a(i, j) - std::conj(a(j, i))) > tol) return false;
  return true;
}

bool is_unitary(const CMat& a, double tol) {
  if (!a.is_square()) return false;
  const CMat p = a.adjoint() * a;
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t j = 0; j < p.cols(); ++j) {
      const cplx expect = (i == j) ? cplx(1, 0) : cplx(0, 0);
      if (std::abs(p(i, j) - expect) > tol) return false;
    }
  return true;
}

}  // namespace qfc::linalg
