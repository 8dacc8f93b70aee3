#pragma once

/// \file freq_bin_source.hpp
/// Frequency-bin entangled qudit pairs from the comb: the d symmetric
/// signal/idler channel pairs around the pump carry a two-qudit state
/// |ψ⟩ = Σ_k c_k |k⟩_s |k⟩_i whose amplitudes come from the per-pair SFWM
/// brightness the sfwm layer computes (|c_k|² ∝ R(k)), with per-bin phases
/// from pump/dispersion. Amplitude/symmetry control follows Maltese et al.
/// 2019: a programmable pulse-shaper mask reshapes the c_k, and the
/// procrustean flattening mask equalizes them into the maximally entangled
/// state at a quantifiable post-selection cost.

#include <vector>

#include "qfc/io/fields.hpp"
#include "qfc/photonics/comb_grid.hpp"
#include "qfc/quantum/state.hpp"
#include "qfc/sfwm/pair_source.hpp"

namespace qfc::qudit {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

struct FreqBinConfig {
  std::size_t dimension = 2;  ///< d: uses comb channel pairs k = 1..d as bins
  /// Per-bin phase (pump phase + dispersion walk-off), radians; empty = 0.
  std::vector<double> bin_phase_rad;

  QFC_FIELDS(FreqBinConfig,
      QFC_FIELD(dimension, io::at_least(2), "qudit dimension d (comb pairs 1..d)"))

  /// Config-only checks (dimension, phase-profile shape); throws
  /// std::invalid_argument with "FreqBinConfig.field: ..." messages. The
  /// FreqBinSource constructor calls this and then checks the
  /// brightness/grid cross-constraints.
  void validate() const;
};

class FreqBinSource {
 public:
  /// \param grid        comb channel grid (must track >= dimension pairs)
  /// \param brightness  per-pair SFWM brightness (rate or mean pairs per
  ///                    pulse) for pairs k = 1..grid.num_pairs()
  FreqBinSource(photonics::CombGrid grid, std::vector<double> brightness,
                FreqBinConfig cfg);

  /// Bins from a CW-pumped source's per-channel pair rates.
  static FreqBinSource from_cw_source(const sfwm::CwPairSource& src,
                                      std::size_t dimension);

  /// Bins from a pulsed source's per-channel mean pair numbers.
  static FreqBinSource from_pulsed_source(const sfwm::PulsedPairSource& src,
                                          std::size_t dimension);

  std::size_t dimension() const noexcept { return cfg_.dimension; }
  const photonics::CombGrid& grid() const noexcept { return grid_; }
  const std::vector<double>& brightness() const noexcept { return brightness_; }

  /// Normalized bin amplitudes c_k (|c_k|² ∝ brightness, phases from cfg).
  CVec bin_amplitudes() const;

  /// The emitted two-qudit state Σ_k c_k |k⟩|k⟩.
  quantum::StateVector state() const;

  /// State after a pulse-shaper mask m_k (arbitrary complex per-bin
  /// transmission, |m_k| <= 1 physically): amplitudes ∝ m_k c_k.
  quantum::StateVector shaped_state(const CVec& mask) const;

  /// Post-selection probability of the mask: Σ|m_k c_k|² / Σ|c_k|².
  double shaping_efficiency(const CVec& mask) const;

  /// Procrustean mask flattening all bins to the weakest one; applying it
  /// yields the maximally entangled qudit pair.
  CVec flattening_mask() const;

  /// shaped_state(flattening_mask()) — the maximally entangled (1/√d)Σ|kk⟩.
  quantum::StateVector flattened_state() const;

  /// Schmidt number K of the unshaped state (effective dimensionality).
  double schmidt_number() const;

  /// Entanglement entropy of the unshaped state, bits (log₂d when flat).
  double entanglement_entropy_bits() const;

 private:
  photonics::CombGrid grid_;
  std::vector<double> brightness_;
  FreqBinConfig cfg_;
};

}  // namespace qfc::qudit
