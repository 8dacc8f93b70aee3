#pragma once

/// \file measures.hpp
/// State metrics: purity, entropy, fidelity, trace distance, concurrence
/// (two-qubit entanglement), and negativity (PPT criterion).
///
/// Each metric comes in two flavors: a matrix-level overload operating on a
/// raw density matrix / amplitude vector of any dimension, and an overload
/// on the validated register types (qubits and qudits alike). The
/// matrix-level overloads assume the caller hands in a valid density matrix
/// (Hermitian, unit trace, PSD); they do not re-validate.

#include "qfc/quantum/state.hpp"

namespace qfc::quantum {

// ------------------------------------------------------------------------
// Matrix-level metrics, dimension-agnostic.

/// Tr(ρ²) ∈ [1/d, 1].
double purity(const linalg::CMat& rho);

/// Von Neumann entropy −Tr(ρ log₂ ρ), in bits.
double von_neumann_entropy_bits(const linalg::CMat& rho);

/// Uhlmann fidelity F(ρ, σ) = (Tr √(√ρ σ √ρ))² ∈ [0, 1].
double fidelity(const linalg::CMat& rho, const linalg::CMat& sigma);

/// Fidelity against a pure target: <ψ|ρ|ψ> (target must be normalized).
double fidelity(const linalg::CMat& rho, const linalg::CVec& target);

/// Trace distance ½ Tr|ρ − σ|.
double trace_distance(const linalg::CMat& rho, const linalg::CMat& sigma);

/// Partial transpose over the second factor of a d1 x d2 bipartition
/// (d1 * d2 must equal the matrix dimension).
linalg::CMat partial_transpose(const linalg::CMat& rho, std::size_t d1, std::size_t d2);

/// Negativity: sum of |negative eigenvalues| of the partial transpose over
/// the second factor of a d1 x d2 bipartition.
double negativity(const linalg::CMat& rho, std::size_t d1, std::size_t d2);

/// Schmidt coefficients (descending, squares sum to 1) of a bipartite pure
/// state with amplitudes `amps` split as d1 x d2.
linalg::RVec schmidt_coefficients(const linalg::CVec& amps, std::size_t d1,
                                  std::size_t d2);

// ------------------------------------------------------------------------
// Batch variants: element i of the result equals the scalar metric applied
// to input i (bitwise — see the linalg batch contract in
// src/qfc/linalg/README.md), but the eig/SVD work is handed to the linalg
// batch seam in one call, so the Blocked backend fans the matrices out
// across its worker pool. Use these in sweeps that evaluate many small
// states at once (witness scans, tomography/ablation sweeps).

std::vector<double> von_neumann_entropy_bits_batch(const std::vector<linalg::CMat>& rhos);

/// Negativity of each state over the same d1 x d2 bipartition.
std::vector<double> negativity_batch(const std::vector<linalg::CMat>& rhos,
                                     std::size_t d1, std::size_t d2);

/// Schmidt coefficients of each pure state over the same d1 x d2 split.
std::vector<linalg::RVec> schmidt_coefficients_batch(
    const std::vector<linalg::CVec>& amps, std::size_t d1, std::size_t d2);

// ------------------------------------------------------------------------
// Register overloads.

double purity(const DensityMatrix& rho);
double von_neumann_entropy_bits(const DensityMatrix& rho);
double fidelity(const DensityMatrix& rho, const DensityMatrix& sigma);
double fidelity(const DensityMatrix& rho, const StateVector& target);
double trace_distance(const DensityMatrix& rho, const DensityMatrix& sigma);

/// Wootters concurrence of a two-qubit state; 0 = separable, 1 = Bell.
/// Throws std::invalid_argument unless rho is a register of two qubits.
double concurrence(const DensityMatrix& rho);

/// Negativity across the bipartition placed after the first
/// `particles_in_first_subsystem` particles.
double negativity(const DensityMatrix& rho, std::size_t particles_in_first_subsystem);

/// Schmidt coefficients of a pure state split after
/// `particles_in_first_subsystem` particles (descending, squares sum to 1).
linalg::RVec schmidt_coefficients(const StateVector& psi,
                                  std::size_t particles_in_first_subsystem);

/// Schmidt number K = 1/Σ λ⁴ of a bipartite pure state (effective number of
/// entangled dimensions; d for the maximally entangled qudit pair).
double schmidt_number(const StateVector& psi, std::size_t particles_in_first_subsystem = 1);

}  // namespace qfc::quantum
