#pragma once

/// \file pair_source.hpp
/// Photon-pair generation rates from spontaneous FWM in the ring, for CW
/// (Sec. II) and pulsed/double-pulse (Sec. IV/V) pumping.
///
/// Model (documented substitution for the full quantum nonlinear-optics
/// calculation): the on-chip generated pair rate into symmetric channel
/// pair k is
///
///   R(k) = C · (γ L P_cav)² · (π/2) δν · η_PM(k) · η_esc²
///
/// with γ the nonlinear parameter, L the ring circumference, P_cav the
/// intracavity pump power (input power x field enhancement), δν the
/// resonance linewidth (the SFWM "gain bandwidth" per channel), η_PM the
/// Lorentzian energy-conservation factor from dispersion, and η_esc the
/// probability that a generated photon exits through the drop port. C is a
/// single dimensionless brightness calibration (default chosen so the
/// Sec. II preset reproduces ref [6]'s detected rates; see DESIGN.md §4).

#include <vector>

#include "qfc/photonics/comb_grid.hpp"
#include "qfc/photonics/microring.hpp"
#include "qfc/photonics/pump.hpp"

namespace qfc::sfwm {

using photonics::CombGrid;
using photonics::MicroringResonator;
using photonics::Polarization;

/// Nonlinear/calibration constants of the SFWM model.
struct SfwmEfficiency {
  /// Hydex nonlinear parameter γ ≈ 0.25 W⁻¹m⁻¹ (Moss et al. 2013).
  double gamma_w_m = 0.25;
  /// Dimensionless brightness calibration C (absorbs mode-overlap and
  /// vacuum-normalization factors not modeled explicitly; fitted once so
  /// the Sec. II preset reproduces ref [6]'s detected pair rates).
  double brightness_calibration = 32.0;
};

/// Escape efficiency through the drop port: fraction of the loaded decay
/// rate contributed by the drop coupler.
double drop_port_escape_efficiency(const MicroringResonator& ring);

/// CW-pumped multiplexed pair source (heralded single photon config).
class CwPairSource {
 public:
  CwPairSource(const MicroringResonator& ring, photonics::CwPump pump,
               int num_channel_pairs, SfwmEfficiency eff = {});

  const MicroringResonator& ring() const noexcept { return ring_; }
  const CombGrid& grid() const noexcept { return grid_; }
  const photonics::CwPump& pump() const noexcept { return pump_; }

  /// Intracavity pump power = input power x on-resonance enhancement.
  double intracavity_power_w() const;

  /// On-chip generated pair rate into channel pair k (pairs/s).
  double pair_rate_hz(int k) const;

  /// Rates for k = 1..num_pairs.
  std::vector<double> pair_rates() const;

  /// Linewidth of the emitted photons (= loaded ring linewidth).
  double photon_linewidth_hz() const;

  /// 1/e coherence time of the Lorentzian photon: τ = 1/(π δν).
  double coherence_time_s() const;

  /// Mean pair number within one photon coherence time — the μ that sets
  /// multi-pair contamination for CW operation.
  double mean_pairs_per_coherence_time(int k) const;

 private:
  MicroringResonator ring_;
  photonics::CwPump pump_;
  CombGrid grid_;
  SfwmEfficiency eff_;
};

/// Pulsed pair source (one pump pulse per time bin).
class PulsedPairSource {
 public:
  /// \param pump   double-pulse configuration; rates are *per single pulse*
  ///               carrying half the pulse-pair energy.
  PulsedPairSource(const MicroringResonator& ring, photonics::DoublePulsePump pump,
                   int num_channel_pairs, SfwmEfficiency eff = {});

  const MicroringResonator& ring() const noexcept { return ring_; }
  const CombGrid& grid() const noexcept { return grid_; }
  const photonics::DoublePulsePump& pump() const noexcept { return pump_; }

  /// Transform-limited Gaussian pump spectral FWHM for the pulse width.
  double pump_bandwidth_hz() const;

  /// Effective field enhancement for a pulse whose bandwidth may exceed
  /// the resonance linewidth: FE² · δν/(δν + Δν_pump).
  double effective_enhancement() const;

  /// Mean pairs generated per single pulse into channel pair k.
  double mean_pairs_per_pulse(int k) const;

 private:
  MicroringResonator ring_;
  photonics::DoublePulsePump pump_;
  CombGrid grid_;
  SfwmEfficiency eff_;
};

}  // namespace qfc::sfwm
