#pragma once

/// \file cglmp.hpp
/// The Collins–Gisin–Linden–Massar–Popescu (CGLMP) Bell inequality for two
/// d-level systems (PRL 88, 040404), evaluated on frequency-bin qudit pairs
/// measured with Fourier-basis analyzers (EOM + pulse shaper). The local
/// bound is 2 for every d; the maximally entangled state with the standard
/// settings gives I_2 = 2√2 (= CHSH), I_3 ≈ 2.873, I_4 ≈ 2.896, growing
/// slowly with d. At d = 2 the expression reduces exactly to CHSH with
/// analyzer phases {0, π/2} × {−π/4, +π/4}.

#include <array>
#include <cstddef>
#include <vector>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::qudit {

/// Analyzer phase offsets, in units of 2π/d (the CGLMP convention):
/// Alice measures with α_a, Bob with β_b. The defaults are the standard
/// optimal settings α = {0, 1/2}, β = {1/4, −1/4}.
struct CglmpSettings {
  std::array<double, 2> alpha{0.0, 0.5};
  std::array<double, 2> beta{0.25, -0.25};
};

/// Local-hidden-variable bound of I_d (2 for all d).
constexpr double cglmp_classical_bound() { return 2.0; }

/// Joint outcome probabilities P(A_a = m, B_b = n) for one setting pair,
/// row-major in (m, n), from ideal Fourier-basis projections.
linalg::RVec cglmp_joint_probabilities(const quantum::DensityMatrix& rho, std::size_t a,
                                       std::size_t b, const CglmpSettings& s = {});

/// Exact I_d from the density matrix of a two-qudit state (equal per-side
/// dimensions required).
double cglmp_value(const quantum::DensityMatrix& rho, const CglmpSettings& s = {});

/// Count-based CGLMP estimate with Poisson statistics.
struct CglmpMeasurement {
  double i_value = 0;
  double i_err = 0;
  bool violates_classical() const { return i_value > cglmp_classical_bound(); }
  double sigmas_above_classical() const {
    return i_err > 0 ? (i_value - cglmp_classical_bound()) / i_err : 0.0;
  }
};

/// Simulate a CGLMP measurement with `pairs_per_setting` detected pairs per
/// setting combination and a flat accidental floor per outcome.
CglmpMeasurement measure_cglmp(const quantum::DensityMatrix& rho, double pairs_per_setting,
                               double accidentals_per_outcome, rng::Xoshiro256& g,
                               const CglmpSettings& s = {});

/// Schmidt-number dimensionality witness (Terhal–Horodecki via the
/// fidelity bound): any state with Schmidt number <= r satisfies
/// ⟨Φ_d|ρ|Φ_d⟩ <= r/d, so F > r/d certifies Schmidt number >= r+1.
/// Returns the certified lower bound (1 = no entanglement certified).
std::size_t schmidt_number_witness(const quantum::DensityMatrix& rho);

}  // namespace qfc::qudit
