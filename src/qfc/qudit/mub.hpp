#pragma once

/// \file mub.hpp
/// Mutually unbiased bases for prime dimension d, the basis set of
/// frequency-bin qudit tomography, and the MUB linear inversion. A complete
/// set of d+1 MUBs is informationally complete with the minimal number of
/// measurement settings; the linear inversion uses the 2-design identity
/// Σ_{b,k} p(k|b) Π_{b,k} = ρ + I (per subsystem). Count simulation and
/// maximum likelihood are the product-basis stack of qfc::tomo with
/// mub_bases(d) as the basis set; the entry points here are thin wrappers.

#include <vector>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"
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

/// Simulate MUB tomography data for a register of equal-dimension qudits
/// (1 or 2 particles): Poisson counts for each of the (d+1)^n settings, via
/// tomo::simulate_counts over mub_bases(d).
std::vector<tomo::SettingCounts> simulate_mub_counts(const quantum::DensityMatrix& rho,
                                                     double shots_per_setting,
                                                     rng::Xoshiro256& g);

/// Linear-inversion estimate from complete MUB data; Hermitian and unit
/// trace but possibly non-physical (project or feed to MLE). Supports 1 and
/// 2 particle registers of equal prime dimension d.
CMat mub_linear_inversion(const std::vector<tomo::SettingCounts>& data, std::size_t d,
                          std::size_t num_particles);

/// Maximum-likelihood reconstruction: tomo::maximum_likelihood over
/// mub_bases(d), seeded from mub_linear_inversion.
tomo::MleResult mub_maximum_likelihood(const std::vector<tomo::SettingCounts>& data,
                                       std::size_t d, std::size_t num_particles,
                                       const tomo::MleOptions& opts = {});

}  // namespace qfc::qudit
