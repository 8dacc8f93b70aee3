#pragma once

/// \file svd.hpp
/// One-sided Jacobi singular value decomposition for complex dense matrices.
/// Used for Schmidt decompositions of joint spectral amplitudes and
/// two-party state vectors.

#include "qfc/linalg/matrix.hpp"

namespace qfc::linalg {

struct SvdResult {
  CMat u;       ///< m x r, orthonormal columns (left singular vectors)
  RVec sigma;   ///< r singular values, descending, non-negative
  CMat v;       ///< n x r, orthonormal columns; A = U diag(sigma) V†
};

/// Thin SVD A = U Σ V† with r = min(m, n). Throws NumericalError if the
/// Jacobi orthogonalization fails to converge and std::invalid_argument
/// for an empty or non-finite input.
SvdResult svd(const CMat& a, int max_sweeps = 96);

}  // namespace qfc::linalg
