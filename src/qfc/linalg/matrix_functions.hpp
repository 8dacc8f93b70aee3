#pragma once

/// \file matrix_functions.hpp
/// Spectral functions of Hermitian matrices: the PSD square root and the
/// projection onto the PSD cone used by tomography reconstruction.

#include "qfc/linalg/matrix.hpp"

namespace qfc::linalg {

/// Principal square root of a positive semidefinite Hermitian matrix.
/// Small negative eigenvalues (|λ| <= clip_tol) are clipped to zero;
/// larger negative ones throw NumericalError.
CMat sqrtm_psd(const CMat& a, double clip_tol = 1e-9);

/// The closest unit-trace PSD matrix, in Frobenius norm, to the Hermitian
/// part of `a`, whatever its trace (Smolin–Gambetta–Smith): the step that
/// turns a linear-inversion estimate into a density matrix, and the
/// projection of each maximum-likelihood gradient step.
CMat project_to_density_matrix(const CMat& a);

}  // namespace qfc::linalg
