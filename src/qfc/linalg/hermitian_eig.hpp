#pragma once

/// \file hermitian_eig.hpp
/// Cyclic Jacobi eigensolver for complex Hermitian matrices.
/// Robust and accurate for the small dimensions used in this library
/// (density matrices up to 16x16, Schmidt problems up to ~128x128).

#include "qfc/linalg/matrix.hpp"

namespace qfc::linalg {

struct EigResult {
  /// Eigenvalues sorted in descending order (real, since input is Hermitian).
  RVec values;
  /// Column j of `vectors` is the normalized eigenvector of values[j];
  /// A = V diag(values) V†.
  CMat vectors;
};

/// Eigendecomposition of a Hermitian matrix (validated to tolerance
/// `hermiticity_tol`). Throws NumericalError on non-convergence and
/// std::invalid_argument for non-Hermitian, non-square or non-finite input.
EigResult hermitian_eig(const CMat& a,
                        int max_sweeps = 64,
                        double hermiticity_tol = 1e-9);

/// Eigenvalues only (same algorithm, skips accumulating vectors).
RVec hermitian_eigenvalues(const CMat& a, int max_sweeps = 64);

}  // namespace qfc::linalg
