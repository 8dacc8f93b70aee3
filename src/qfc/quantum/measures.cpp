#include "qfc/quantum/measures.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/linalg/svd.hpp"
#include "qfc/quantum/pauli.hpp"

namespace qfc::quantum {

using linalg::cplx;

// ------------------------------------------------------------------------
// Matrix-level implementations.

double purity(const linalg::CMat& rho) {
  rho.require_square("purity");
  return std::real(linalg::trace_product(rho, rho));
}

double von_neumann_entropy_bits(const linalg::CMat& rho) {
  const auto evals = linalg::hermitian_eigenvalues(rho);
  double s = 0;
  for (double v : evals)
    if (v > 1e-14) s -= v * std::log2(v);
  return s;
}

double fidelity(const linalg::CMat& rho, const linalg::CMat& sigma) {
  if (rho.rows() != sigma.rows() || rho.cols() != sigma.cols())
    throw std::invalid_argument("fidelity: dim mismatch");
  const linalg::CMat sr = linalg::sqrtm_psd(rho);
  const linalg::CMat inner = sr * sigma * sr;
  const linalg::CMat root = linalg::sqrtm_psd(inner, 1e-7);
  const double tr = std::real(root.trace());
  return std::min(1.0, tr * tr);
}

double fidelity(const linalg::CMat& rho, const linalg::CVec& target) {
  if (rho.rows() != target.size() || !rho.is_square())
    throw std::invalid_argument("fidelity: dim mismatch");
  cplx s(0, 0);
  for (std::size_t i = 0; i < target.size(); ++i)
    for (std::size_t j = 0; j < target.size(); ++j)
      s += std::conj(target[i]) * rho(i, j) * target[j];
  return std::min(1.0, std::max(0.0, std::real(s)));
}

double trace_distance(const linalg::CMat& rho, const linalg::CMat& sigma) {
  if (rho.rows() != sigma.rows() || rho.cols() != sigma.cols())
    throw std::invalid_argument("trace_distance: dim mismatch");
  linalg::CMat d = rho;
  d -= sigma;
  const auto evals = linalg::hermitian_eigenvalues(d);
  double s = 0;
  for (double v : evals) s += std::abs(v);
  return 0.5 * s;
}

linalg::CMat partial_transpose(const linalg::CMat& rho, std::size_t d1, std::size_t d2) {
  rho.require_square("partial_transpose");
  if (d1 < 2 || d2 < 2 || d1 * d2 != rho.rows())
    throw std::invalid_argument("partial_transpose: bad bipartition");
  linalg::CMat pt(rho.rows(), rho.rows());
  for (std::size_t i1 = 0; i1 < d1; ++i1)
    for (std::size_t i2 = 0; i2 < d2; ++i2)
      for (std::size_t j1 = 0; j1 < d1; ++j1)
        for (std::size_t j2 = 0; j2 < d2; ++j2)
          pt(i1 * d2 + j2, j1 * d2 + i2) = rho(i1 * d2 + i2, j1 * d2 + j2);
  return pt;
}

double negativity(const linalg::CMat& rho, std::size_t d1, std::size_t d2) {
  const auto evals = linalg::hermitian_eigenvalues(partial_transpose(rho, d1, d2));
  double s = 0;
  for (double v : evals)
    if (v < 0) s += -v;
  return s;
}

linalg::RVec schmidt_coefficients(const linalg::CVec& amps, std::size_t d1,
                                  std::size_t d2) {
  if (d1 < 2 || d2 < 2 || d1 * d2 != amps.size())
    throw std::invalid_argument("schmidt_coefficients: bad bipartition");
  linalg::CMat m(d1, d2);
  for (std::size_t i = 0; i < d1; ++i)
    for (std::size_t j = 0; j < d2; ++j) m(i, j) = amps[i * d2 + j];
  auto res = linalg::svd(m);
  return res.sigma;
}

// ------------------------------------------------------------------------
// Register overloads.

double purity(const DensityMatrix& rho) { return purity(rho.matrix()); }

double von_neumann_entropy_bits(const DensityMatrix& rho) {
  return von_neumann_entropy_bits(rho.matrix());
}

double fidelity(const DensityMatrix& rho, const DensityMatrix& sigma) {
  return fidelity(rho.matrix(), sigma.matrix());
}

double fidelity(const DensityMatrix& rho, const StateVector& target) {
  return fidelity(rho.matrix(), target.amplitudes());
}

double trace_distance(const DensityMatrix& rho, const DensityMatrix& sigma) {
  return trace_distance(rho.matrix(), sigma.matrix());
}

double concurrence(const DensityMatrix& rho) {
  if (rho.num_qubits() != 2) throw std::invalid_argument("concurrence: needs a two-qubit state");
  // Wootters: C = max(0, λ1 − λ2 − λ3 − λ4) with λi the descending square
  // roots of the eigenvalues of ρ (Y⊗Y) ρ* (Y⊗Y).
  const linalg::CMat yy = linalg::kron(pauli_y(), pauli_y());
  // Use the Hermitian trick: eigenvalues of ρ (Y⊗Y) ρ* (Y⊗Y) equal those of
  // sqrt(ρ) (Y⊗Y) ρ* (Y⊗Y) sqrt(ρ), which is Hermitian PSD.
  const linalg::CMat sr = linalg::sqrtm_psd(rho.matrix());
  const linalg::CMat herm = sr * yy * rho.matrix().conj() * yy * sr;
  auto evals = linalg::hermitian_eigenvalues(herm);
  for (auto& v : evals) v = std::sqrt(std::max(0.0, v));
  // evals are sorted descending already.
  const double c = evals[0] - evals[1] - evals[2] - evals[3];
  return std::max(0.0, c);
}

namespace {

/// (d1, d2) of the bipartition after `first` particles.
std::pair<std::size_t, std::size_t> split_dims(const Dims& dims, std::size_t first,
                                               const char* who) {
  if (first == 0 || first >= dims.size())
    throw std::invalid_argument(std::string(who) + ": bad split");
  std::size_t d1 = 1, d2 = 1;
  for (std::size_t q = 0; q < first; ++q) d1 *= dims[q];
  for (std::size_t q = first; q < dims.size(); ++q) d2 *= dims[q];
  return {d1, d2};
}

}  // namespace

double negativity(const DensityMatrix& rho, std::size_t particles_in_first_subsystem) {
  const auto [d1, d2] = split_dims(rho.dims(), particles_in_first_subsystem, "negativity");
  return negativity(rho.matrix(), d1, d2);
}

linalg::RVec schmidt_coefficients(const StateVector& psi,
                                  std::size_t particles_in_first_subsystem) {
  const auto [d1, d2] =
      split_dims(psi.dims(), particles_in_first_subsystem, "schmidt_coefficients");
  return schmidt_coefficients(psi.amplitudes(), d1, d2);
}

double schmidt_number(const StateVector& psi, std::size_t particles_in_first_subsystem) {
  double sum4 = 0;
  for (double l : schmidt_coefficients(psi, particles_in_first_subsystem)) sum4 += l * l * l * l;
  if (sum4 <= 0) throw std::invalid_argument("schmidt_number: degenerate state");
  return 1.0 / sum4;
}

}  // namespace qfc::quantum
