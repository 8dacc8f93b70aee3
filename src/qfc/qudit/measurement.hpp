#pragma once

/// \file measurement.hpp
/// The frequency-bin measurement chain: a programmable pulse shaper applies
/// per-bin amplitude/phase masks and an electro-optic phase modulator (EOM)
/// driven at the bin spacing mixes neighboring bins, so a single detected
/// output bin interferes all input bins — the standard projection apparatus
/// for frequency-bin qudits (Kues 2017 / Imany 2018 / Kues et al. 2020
/// review). Sideband amplitudes follow the Bessel envelope J_n(m) of
/// sinusoidal phase modulation, which is what limits projection efficiency
/// at large d.

#include <cstdint>
#include <vector>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::qudit {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

struct AnalyzerConfig {
  /// EOM RF modulation index m (radians); sideband n carries amplitude
  /// J_n(m). Larger m reaches further bins but never uniformly.
  double modulation_index = 1.5;
  /// Output bin the single-frequency detector sits on (0-based); bins at
  /// distance n contribute through the J_n(m) sideband. Negative = center.
  int detection_bin = -1;
};

/// One analyzer (one arm of the two-qudit measurement).
class FreqBinAnalyzer {
 public:
  explicit FreqBinAnalyzer(std::size_t dimension, AnalyzerConfig cfg = {});

  std::size_t dimension() const noexcept { return d_; }
  const AnalyzerConfig& config() const noexcept { return cfg_; }

  /// Ideal Fourier-basis analysis vector with analyzer phase γ:
  /// |v_k(γ)⟩ = (1/√d) Σ_j e^{±i 2π j (γ_frac + k)/d} |j⟩. `conjugate`
  /// selects the idler-side convention (opposite phase sign), matching the
  /// CGLMP measurement layout.
  CVec fourier_vector(std::size_t outcome, double phase, bool conjugate = false) const;

  /// Success probability scale of the hardware projection relative to the
  /// ideal one: ‖J-weighted target‖² (1 for a single-bin projection with
  /// k = k_det, < 1 for superpositions).
  double projection_efficiency(const CVec& target) const;

  /// |v⟩⟨v| of the ideal (unweighted) vector.
  static CMat ideal_projector(const CVec& target);

 private:
  std::size_t d_;
  AnalyzerConfig cfg_;
};

/// Poisson-fluctuating joint counts for a two-qudit state measured with one
/// projector list per side: counts[a * bob.size() + b].
std::vector<std::uint64_t> simulate_joint_counts(
    const quantum::DensityMatrix& rho, const std::vector<CMat>& alice_projectors,
    const std::vector<CMat>& bob_projectors, double pairs,
    double accidentals_per_outcome, rng::Xoshiro256& g);

}  // namespace qfc::qudit
