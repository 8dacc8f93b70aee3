#pragma once

/// \file mub.hpp
/// Mutually unbiased bases for prime dimension d and MUB-based qudit state
/// tomography. A complete set of d+1 MUBs is informationally complete with
/// the minimal number of measurement settings; reconstruction uses the
/// 2-design identity Σ_{b,k} p(k|b) Π_{b,k} = ρ + I (per subsystem) for
/// linear inversion and then plugs into the shared iterative RρR
/// maximum-likelihood core in qfc::tomo. Every MUB outcome is rank-1, so the
/// core gets one Kronecker product of basis columns per outcome, never a
/// dense projector.

#include <cstdint>
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
std::vector<CMat> mub_bases(std::size_t d);

/// One tomography setting: a MUB index per particle, plus the observed
/// counts for all d^n joint outcomes (row-major, particle 0 slowest).
struct MubSettingCounts {
  std::vector<std::size_t> bases;
  std::vector<std::uint64_t> counts;

  std::uint64_t total() const;
};

/// Simulate MUB tomography data for a register of equal-dimension qudits
/// (1 or 2 particles): Poisson counts for each of the (d+1)^n settings.
std::vector<MubSettingCounts> simulate_mub_counts(const quantum::DensityMatrix& rho,
                                                  double shots_per_setting,
                                                  rng::Xoshiro256& g);

/// Linear-inversion estimate from complete MUB data; Hermitian and unit
/// trace but possibly non-physical (project or feed to MLE). Supports 1 and
/// 2 particle registers of equal prime dimension d.
CMat mub_linear_inversion(const std::vector<MubSettingCounts>& data, std::size_t d,
                          std::size_t num_particles);

struct MubMleResult {
  quantum::DensityMatrix rho;
  int iterations = 0;
  bool converged = false;
  double log_likelihood = 0;
};

/// Maximum-likelihood reconstruction: projected linear inversion seeds the
/// shared tomo::rrr_reconstruct iteration over the rank-1 outcome vectors.
MubMleResult mub_maximum_likelihood(const std::vector<MubSettingCounts>& data,
                                    std::size_t d, std::size_t num_particles,
                                    const tomo::MleOptions& opts = {});

}  // namespace qfc::qudit
