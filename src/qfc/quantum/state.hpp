#pragma once

/// \file state.hpp
/// Pure states and density matrices of registers of qubits and qudits. Each
/// particle has its own dimension (not necessarily equal, not necessarily a
/// power of two): the time-bin qubits of the multi-photon experiments and
/// the d-level frequency-bin systems of Kues et al. 2020 / Maltese et al.
/// 2019 are the same register type, and an n-qubit register is the case
/// Dims(n, 2). Particle 0 is the most significant digit of the mixed-radix
/// computational-basis index (|q0 q1 ... qn-1>).

#include <cstddef>
#include <utility>
#include <vector>

#include "qfc/linalg/matrix.hpp"

namespace qfc::quantum {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

/// Per-particle dimensions, most significant digit first.
using Dims = std::vector<std::size_t>;

/// Product of the per-particle dimensions; throws std::invalid_argument
/// unless there is at least one particle, every entry is >= 2 and the
/// product is at most 2^20 (the largest pure state). Density matrices are
/// capped at 4096 (Jacobi eigensolver territory).
std::size_t total_dim(const Dims& dims);

/// Normalized pure state of a register.
class StateVector {
 public:
  /// |0...0> of n qubits.
  explicit StateVector(std::size_t num_qubits);

  /// From amplitudes of a qubit register (size must be a power of two).
  explicit StateVector(CVec amplitudes);

  /// |0...0> with the given per-particle dimensions.
  explicit StateVector(Dims dims);

  /// From amplitudes (size must equal the product of dims). Normalizes;
  /// throws on the zero vector and on NaN/Inf amplitudes.
  StateVector(CVec amplitudes, Dims dims);

  const Dims& dims() const noexcept { return dims_; }
  std::size_t num_particles() const noexcept { return dims_.size(); }
  /// Particle count of an all-qubit register; throws std::invalid_argument
  /// if any particle is not a qubit. Qubit-only code goes through this.
  std::size_t num_qubits() const;
  std::size_t dim() const noexcept { return amps_.size(); }
  const CVec& amplitudes() const noexcept { return amps_; }
  cplx amplitude(std::size_t basis_index) const { return amps_.at(basis_index); }

  /// Tensor product |this> ⊗ |other> (dims are concatenated).
  StateVector tensor(const StateVector& other) const;

  /// <this|other>.
  cplx overlap(const StateVector& other) const;

  /// |<this|other>|².
  double overlap_probability(const StateVector& other) const;

  /// Apply a d_p x d_p unitary on particle p.
  StateVector apply_local(const CMat& u, std::size_t particle) const;

  /// Probability of measuring the given computational-basis outcome.
  double probability(std::size_t basis_index) const;

 private:
  Dims dims_;
  CVec amps_;
};

/// Density matrix of a register: Hermitian, unit trace, PSD (validated).
class DensityMatrix {
 public:
  /// Maximally mixed state I/dim with the given per-particle dimensions.
  explicit DensityMatrix(Dims dims);

  /// |psi><psi|.
  explicit DensityMatrix(const StateVector& psi);

  /// From a raw matrix of a qubit register (size must be a power of two).
  explicit DensityMatrix(CMat rho, double psd_tol = 1e-8);

  /// From a raw matrix; rejects NaN/Inf entries and validates shape,
  /// Hermiticity and trace. The PSD check is tolerance-based (small negative
  /// eigenvalues allowed up to psd_tol).
  DensityMatrix(CMat rho, Dims dims, double psd_tol = 1e-8);

  const Dims& dims() const noexcept { return dims_; }
  std::size_t num_particles() const noexcept { return dims_.size(); }
  /// Particle count of an all-qubit register; throws std::invalid_argument
  /// if any particle is not a qubit. Qubit-only code goes through this.
  std::size_t num_qubits() const;
  std::size_t dim() const noexcept { return rho_.rows(); }
  const CMat& matrix() const noexcept { return rho_; }

  /// Tr(ρ O), as the O(dim²) trace of the product — the inner loop of every
  /// probability evaluation.
  cplx expectation(const CMat& observable) const;

  /// Probability Tr(ρ P) of projector P, clipped to [0, 1].
  double probability(const CMat& projector) const;

  /// ρ ⊗ σ (dims are concatenated).
  DensityMatrix tensor(const DensityMatrix& other) const;

  /// Partial trace keeping the listed particles (strictly ascending).
  DensityMatrix partial_trace_keep(const std::vector<std::size_t>& keep) const;

  /// Convex mixture (1−p) ρ + p σ.
  DensityMatrix mix(const DensityMatrix& other, double p) const;

 private:
  /// Unchecked path for internal operations whose results are valid by
  /// construction (tensor, partial trace, mix).
  DensityMatrix(Dims dims, CMat rho) : dims_(std::move(dims)), rho_(std::move(rho)) {}

  Dims dims_;
  CMat rho_;
};

}  // namespace qfc::quantum
