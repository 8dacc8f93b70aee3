#include "qfc/quantum/state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "qfc/linalg/hermitian_eig.hpp"

namespace qfc::quantum {

std::size_t total_dim(const Dims& dims) {
  constexpr std::size_t kMaxStateDim = std::size_t{1} << 20;
  if (dims.empty()) throw std::invalid_argument("total_dim: no particles");
  std::size_t d = 1;
  for (std::size_t dk : dims) {
    if (dk < 2) throw std::invalid_argument("total_dim: particle dimension < 2");
    if (d > kMaxStateDim / dk) throw std::invalid_argument("total_dim: register too large");
    d *= dk;
  }
  return d;
}

namespace {

std::size_t density_dim(const Dims& dims) {
  constexpr std::size_t kMaxDensityDim = 4096;
  const std::size_t d = total_dim(dims);
  if (d > kMaxDensityDim) throw std::invalid_argument("DensityMatrix: register too large");
  return d;
}

/// Dims of an n-qubit register.
Dims qubits(std::size_t n, const char* who) {
  if (n == 0 || n > 20)
    throw std::invalid_argument(std::string(who) + ": unsupported qubit count");
  return Dims(n, 2);
}

/// Dims of the qubit register whose dimension is `dim` (a power of two).
Dims qubits_for_dim(std::size_t dim, const char* who) {
  Dims dims;
  for (std::size_t d = dim; d > 1; d /= 2) {
    if (d % 2 != 0)
      throw std::invalid_argument(std::string(who) + ": dimension is not a power of two");
    dims.push_back(2);
  }
  return dims;
}

std::size_t qubit_count(const Dims& dims) {
  for (std::size_t d : dims)
    if (d != 2) throw std::invalid_argument("num_qubits: register has a non-qubit particle");
  return dims.size();
}

/// Dimension of everything to the right of particle p (the index stride of
/// particle p's digit).
std::size_t stride_after(const Dims& dims, std::size_t p) {
  std::size_t s = 1;
  for (std::size_t q = p + 1; q < dims.size(); ++q) s *= dims[q];
  return s;
}

Dims concat(const Dims& a, const Dims& b) {
  Dims out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

void check_and_normalize(CVec& amps, const Dims& dims) {
  if (amps.size() != total_dim(dims))
    throw std::invalid_argument("StateVector: amplitude size does not match dims");
  for (const cplx& a : amps)
    if (!std::isfinite(a.real()) || !std::isfinite(a.imag()))
      throw std::invalid_argument("StateVector: non-finite amplitude");
  linalg::vnormalize(amps);
}

void check_density(const CMat& rho, const Dims& dims, double psd_tol) {
  rho.require_square("DensityMatrix");
  if (rho.rows() != density_dim(dims))
    throw std::invalid_argument("DensityMatrix: matrix size does not match dims");
  rho.require_finite("DensityMatrix");
  if (!linalg::is_hermitian(rho, 1e-8))
    throw std::invalid_argument("DensityMatrix: not Hermitian");
  const double tr = std::real(rho.trace());
  if (std::abs(tr - 1.0) > 1e-6) throw std::invalid_argument("DensityMatrix: trace != 1");
  const auto evals = linalg::hermitian_eigenvalues(rho);
  for (double v : evals)
    if (v < -psd_tol) throw std::invalid_argument("DensityMatrix: not positive semidefinite");
}

CMat pure_density(const StateVector& psi) {
  density_dim(psi.dims());
  return linalg::outer(psi.amplitudes(), psi.amplitudes());
}

}  // namespace

StateVector::StateVector(std::size_t num_qubits)
    : StateVector(qubits(num_qubits, "StateVector")) {}

StateVector::StateVector(CVec amplitudes)
    : dims_(qubits_for_dim(amplitudes.size(), "StateVector")), amps_(std::move(amplitudes)) {
  check_and_normalize(amps_, dims_);
}

StateVector::StateVector(Dims dims)
    : dims_(std::move(dims)), amps_(total_dim(dims_), cplx(0, 0)) {
  amps_[0] = cplx(1, 0);
}

StateVector::StateVector(CVec amplitudes, Dims dims)
    : dims_(std::move(dims)), amps_(std::move(amplitudes)) {
  check_and_normalize(amps_, dims_);
}

std::size_t StateVector::num_qubits() const { return qubit_count(dims_); }

StateVector StateVector::tensor(const StateVector& other) const {
  return StateVector(linalg::kron(amps_, other.amps_), concat(dims_, other.dims_));
}

cplx StateVector::overlap(const StateVector& other) const {
  if (dim() != other.dim()) throw std::invalid_argument("StateVector::overlap: dim mismatch");
  return linalg::vdot(amps_, other.amps_);
}

double StateVector::overlap_probability(const StateVector& other) const {
  return std::norm(overlap(other));
}

StateVector StateVector::apply_local(const CMat& u, std::size_t particle) const {
  if (particle >= dims_.size())
    throw std::out_of_range("StateVector::apply_local: particle out of range");
  const std::size_t dp = dims_[particle];
  if (u.rows() != dp || u.cols() != dp)
    throw std::invalid_argument("StateVector::apply_local: operator does not match particle dim");

  const std::size_t post = stride_after(dims_, particle);
  const std::size_t block = dp * post;  // span of one iteration over particle's digit
  CVec out(amps_.size(), cplx(0, 0));
  for (std::size_t base = 0; base < amps_.size(); base += block)
    for (std::size_t r = 0; r < post; ++r)
      for (std::size_t i = 0; i < dp; ++i) {
        cplx s(0, 0);
        for (std::size_t j = 0; j < dp; ++j) s += u(i, j) * amps_[base + j * post + r];
        out[base + i * post + r] = s;
      }
  return StateVector(std::move(out), dims_);
}

double StateVector::probability(std::size_t basis_index) const {
  return std::norm(amps_.at(basis_index));
}

DensityMatrix::DensityMatrix(Dims dims)
    : dims_(std::move(dims)), rho_(CMat::identity(density_dim(dims_))) {
  rho_ *= cplx(1.0 / static_cast<double>(dim()), 0);
}

DensityMatrix::DensityMatrix(const StateVector& psi)
    : dims_(psi.dims()), rho_(pure_density(psi)) {}

DensityMatrix::DensityMatrix(CMat rho, double psd_tol)
    : dims_(qubits_for_dim(rho.rows(), "DensityMatrix")), rho_(std::move(rho)) {
  check_density(rho_, dims_, psd_tol);
}

DensityMatrix::DensityMatrix(CMat rho, Dims dims, double psd_tol)
    : dims_(std::move(dims)), rho_(std::move(rho)) {
  check_density(rho_, dims_, psd_tol);
}

std::size_t DensityMatrix::num_qubits() const { return qubit_count(dims_); }

cplx DensityMatrix::expectation(const CMat& observable) const {
  if (observable.rows() != dim() || observable.cols() != dim())
    throw std::invalid_argument("DensityMatrix::expectation: dim mismatch");
  return linalg::trace_product(rho_, observable);
}

double DensityMatrix::probability(const CMat& projector) const {
  const double p = std::real(expectation(projector));
  return std::min(1.0, std::max(0.0, p));
}

DensityMatrix DensityMatrix::tensor(const DensityMatrix& other) const {
  return DensityMatrix(concat(dims_, other.dims_), linalg::kron(rho_, other.rho_));
}

DensityMatrix DensityMatrix::partial_trace_keep(const std::vector<std::size_t>& keep) const {
  if (keep.empty())
    throw std::invalid_argument("partial_trace_keep: must keep at least one particle");
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] >= dims_.size()) throw std::out_of_range("partial_trace_keep: bad particle");
    if (i > 0 && keep[i] <= keep[i - 1])
      throw std::invalid_argument("partial_trace_keep: particles must be strictly ascending");
  }

  std::vector<std::size_t> traced;
  for (std::size_t q = 0; q < dims_.size(); ++q) {
    bool kept = false;
    for (std::size_t kq : keep) kept |= (kq == q);
    if (!kept) traced.push_back(q);
  }

  Dims kept_dims, traced_dims;
  for (std::size_t q : keep) kept_dims.push_back(dims_[q]);
  for (std::size_t q : traced) traced_dims.push_back(dims_[q]);
  std::size_t out_dim = 1, tr_dim = 1;
  for (std::size_t d : kept_dims) out_dim *= d;
  for (std::size_t d : traced_dims) tr_dim *= d;

  std::vector<std::size_t> strides(dims_.size());
  for (std::size_t q = 0; q < dims_.size(); ++q) strides[q] = stride_after(dims_, q);

  // Full-register index from (kept digits, traced digits) mixed-radix values.
  const auto make_index = [&](std::size_t kept_val, std::size_t traced_val) {
    std::size_t idx = 0;
    for (std::size_t i = kept_dims.size(); i-- > 0;) {
      idx += (kept_val % kept_dims[i]) * strides[keep[i]];
      kept_val /= kept_dims[i];
    }
    for (std::size_t i = traced_dims.size(); i-- > 0;) {
      idx += (traced_val % traced_dims[i]) * strides[traced[i]];
      traced_val /= traced_dims[i];
    }
    return idx;
  };

  CMat out(out_dim, out_dim);
  for (std::size_t a = 0; a < out_dim; ++a)
    for (std::size_t b = 0; b < out_dim; ++b) {
      cplx s(0, 0);
      for (std::size_t t = 0; t < tr_dim; ++t) s += rho_(make_index(a, t), make_index(b, t));
      out(a, b) = s;
    }
  return DensityMatrix(std::move(kept_dims), std::move(out));
}

DensityMatrix DensityMatrix::mix(const DensityMatrix& other, double p) const {
  if (p < 0 || p > 1) throw std::invalid_argument("DensityMatrix::mix: p outside [0,1]");
  if (dim() != other.dim()) throw std::invalid_argument("DensityMatrix::mix: dim mismatch");
  return DensityMatrix(dims_, rho_ * cplx(1 - p, 0) + other.rho_ * cplx(p, 0));
}

}  // namespace qfc::quantum
