#pragma once

/// \file mub.hpp
/// Mutually unbiased bases for prime dimension d, the basis set of
/// frequency-bin qudit tomography. A complete set of d+1 MUBs is
/// informationally complete with the minimal number of measurement
/// settings. Tomography is the product-basis stack of qfc::tomo with
/// mub_bases(d) as the basis set, for any number of qudits:
/// tomo::simulate_counts, tomo::linear_inversion and
/// tomo::maximum_likelihood.

#include <vector>

#include "qfc/tomo/tomography.hpp"

namespace qfc::qudit {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

bool is_prime(std::size_t d);

/// The d+1 mutually unbiased bases of a prime-dimension qudit; element [b]
/// is a d x d unitary whose columns are the basis vectors. Basis 0 is
/// computational (the frequency bins themselves); the rest are the
/// Ivanović/Wootters–Fields superposition bases (X, Y at d = 2), which the
/// EOM + pulse-shaper analyzer realizes. Throws for non-prime d.
tomo::BasisSet mub_bases(std::size_t d);

}  // namespace qfc::qudit
