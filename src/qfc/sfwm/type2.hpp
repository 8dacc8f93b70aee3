#pragma once

/// \file type2.hpp
/// Type-II spontaneous FWM (paper Sec. III): bichromatic, orthogonally
/// polarized pumping generates cross-polarized photon pairs while the
/// designed TE/TM resonance offset suppresses the competing stimulated
/// process. Includes the optical parametric oscillation (OPO) power curve
/// whose threshold the paper reports at 14 mW.

#include <vector>

#include "qfc/photonics/comb_grid.hpp"
#include "qfc/photonics/microring.hpp"
#include "qfc/photonics/pump.hpp"
#include "qfc/sfwm/pair_source.hpp"

namespace qfc::sfwm {

class Type2PairSource {
 public:
  Type2PairSource(const MicroringResonator& ring, photonics::CrossPolarizedPump pump,
                  int num_channel_pairs, SfwmEfficiency eff = {});

  const MicroringResonator& ring() const noexcept { return ring_; }
  const photonics::CrossPolarizedPump& pump() const noexcept { return pump_; }

  /// Geometric-mean intracavity pump power √(P_TE,cav · P_TM,cav).
  double effective_intracavity_power_w() const;

  /// On-chip cross-polarized pair rate into channel pair k (signal TE at
  /// +k, idler TM at −k).
  double pair_rate_hz(int k) const;

  /// Suppression of stimulated FWM enforced by the TE/TM grid offset, dB.
  double stimulated_suppression_db() const;

  double photon_linewidth_hz() const;

 private:
  MicroringResonator ring_;
  photonics::CrossPolarizedPump pump_;
  int num_pairs_;
  SfwmEfficiency eff_;
};

/// Degenerate bichromatically-pumped OPO: spontaneous (quadratic) emission
/// below threshold, linear conversion above (paper Sec. III: threshold at
/// 14 mW total pump power).
class OpoModel {
 public:
  /// \param ring  the type-II device
  /// \param eff   nonlinear constants (threshold ∝ 1/γ)
  /// \param slope_efficiency  above-threshold output/input slope
  OpoModel(const MicroringResonator& ring, SfwmEfficiency eff = {},
           double slope_efficiency = 0.12);

  /// Total pump power at which round-trip parametric gain equals round-trip
  /// loss: P_th = (1 − t1 t2 a)/(γ L FE²).
  double threshold_w() const;

  /// Emitted parametric power for a given total pump power: quadratic in P
  /// below threshold (spontaneous), linear above.
  double output_power_w(double pump_power_w) const;

  /// True if the given pump power is above threshold.
  bool oscillating(double pump_power_w) const { return pump_power_w > threshold_w(); }

 private:
  MicroringResonator ring_;
  SfwmEfficiency eff_;
  double slope_;
  double threshold_w_;
  double spontaneous_coefficient_w_per_w2_;
};

}  // namespace qfc::sfwm
