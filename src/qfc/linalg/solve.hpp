#pragma once

/// \file solve.hpp
/// Real linear least squares (Householder QR), used by the detect fits and
/// the dispersion extraction.

#include "qfc/linalg/matrix.hpp"

namespace qfc::linalg {

/// Solve the real overdetermined least-squares problem min ||A x - b||_2
/// via Householder QR. Requires rows >= cols and full column rank.
RVec least_squares(const RMat& a, const RVec& b);

}  // namespace qfc::linalg
