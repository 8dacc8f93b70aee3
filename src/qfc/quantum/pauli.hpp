#pragma once

/// \file pauli.hpp
/// Pauli matrices, standard single-qubit states/rotations, and
/// tensor-product Pauli strings used by tomography and CHSH analysis.

#include <string>

#include "qfc/linalg/matrix.hpp"

namespace qfc::quantum {

using linalg::CMat;
using linalg::CVec;

const CMat& pauli_i();
const CMat& pauli_x();
const CMat& pauli_y();
const CMat& pauli_z();
const CMat& hadamard();

/// Pauli by label: 'I', 'X', 'Y', 'Z'.
const CMat& pauli(char label);

/// Tensor product of Paulis, e.g. "XZ" -> X ⊗ Z (left-most acts on qubit 0).
CMat pauli_string(const std::string& labels);

/// Projector |v><v| from a single-qubit state vector.
CMat projector(const CVec& v);

/// Eigenvectors of the X-Y plane observable cos(φ) X + sin(φ) Y, the
/// analyzer of a time-bin interferometer at phase φ: (|0> ± e^{iφ}|1>)/√2.
CVec xy_eigenstate(double phi, int sign);

/// The analyzer basis at phase φ: column 0 is xy_eigenstate(φ, +1), column
/// 1 is xy_eigenstate(φ, −1).
CMat xy_basis(double phi);

}  // namespace qfc::quantum
