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

/// Measurement operator cos observable for a direction in the X-Y plane:
/// A(φ) = cos(φ) X + sin(φ) Y — the natural analyzer observable of a
/// time-bin interferometer at phase φ.
CMat xy_observable(double phi);

/// Eigenvectors of xy_observable(φ): (|0> ± e^{iφ}|1>)/√2.
CVec xy_eigenstate(double phi, int sign);

}  // namespace qfc::quantum
