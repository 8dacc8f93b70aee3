#pragma once

/// \file pump.hpp
/// Pump configurations — the experimental "knob" the paper turns to select
/// which quantum state the comb generates (Sec. II–V). Each configuration
/// is a small value type consumed by the SFWM engine and the core API.

#include <stdexcept>

#include "qfc/photonics/waveguide.hpp"

namespace qfc::photonics {

/// How the CW pump tracks the ring resonance.
enum class PumpLocking {
  /// Ring sits inside the pump laser's own cavity; lasing line follows the
  /// resonance automatically (paper Sec. II, ref [6]) — no active control.
  SelfLocked,
  /// External laser tuned once to the resonance; thermal drift of the ring
  /// detunes it over time.
  ExternalFixed,
};

/// Continuous-wave pump for the heralded single-photon configuration.
struct CwPump {
  double power_w = 0.0;          ///< average power at the ring input
  double frequency_hz = 0.0;     ///< nominal pump frequency (on resonance)
  PumpLocking locking = PumpLocking::SelfLocked;

  void validate() const {
    if (!(power_w >= 0)) throw std::invalid_argument("CwPump: negative power");
    if (!(frequency_hz > 0)) throw std::invalid_argument("CwPump: frequency <= 0");
  }
};

/// Bichromatic, orthogonally polarized CW pump for type-II SFWM
/// (paper Sec. III, ref [7]): one field on a TE resonance, one on a TM
/// resonance.
struct CrossPolarizedPump {
  double power_te_w = 0.0;
  double power_tm_w = 0.0;
  double frequency_te_hz = 0.0;
  double frequency_tm_hz = 0.0;

  double total_power_w() const { return power_te_w + power_tm_w; }

  void validate() const {
    if (!(power_te_w >= 0) || !(power_tm_w >= 0))
      throw std::invalid_argument("CrossPolarizedPump: negative power");
    if (!(frequency_te_hz > 0) || !(frequency_tm_hz > 0))
      throw std::invalid_argument("CrossPolarizedPump: frequency <= 0");
  }
};

/// Pulse train parameters for the time-bin configuration.
struct PulseTrain {
  double repetition_rate_hz = 0.0;
  double pulse_fwhm_s = 0.0;      ///< intensity FWHM of one pulse
  double average_power_w = 0.0;

  double pulse_energy_J() const {
    if (repetition_rate_hz <= 0) throw std::invalid_argument("PulseTrain: rep rate <= 0");
    return average_power_w / repetition_rate_hz;
  }

  void validate() const {
    if (!(repetition_rate_hz > 0)) throw std::invalid_argument("PulseTrain: rep rate <= 0");
    if (!(pulse_fwhm_s > 0)) throw std::invalid_argument("PulseTrain: pulse width <= 0");
    if (!(average_power_w >= 0)) throw std::invalid_argument("PulseTrain: negative power");
  }
};

/// Coherent double pulse produced by the unbalanced, phase-stabilized
/// Michelson interferometer (paper Sec. IV, ref [8]). The two pulses define
/// the |short> and |long> time bins.
struct DoublePulsePump {
  PulseTrain train;
  double bin_separation_s = 0.0;   ///< interferometer imbalance (time-bin spacing)
  double pump_phase_rad = 0.0;     ///< relative phase between the two pulses
  double frequency_hz = 0.0;       ///< carrier, filtered to one ring resonance

  void validate() const {
    train.validate();
    if (!(bin_separation_s > 0))
      throw std::invalid_argument("DoublePulsePump: bin separation <= 0");
    if (!(bin_separation_s >= 4.0 * train.pulse_fwhm_s))
      throw std::invalid_argument(
          "DoublePulsePump: time bins overlap (separation < 4x pulse width)");
    if (!(frequency_hz > 0)) throw std::invalid_argument("DoublePulsePump: frequency <= 0");
  }
};

}  // namespace qfc::photonics
