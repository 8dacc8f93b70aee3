#pragma once

/// \file timebin_experiment.hpp
/// Sec. IV end-to-end experiment: double-pulse pumping, matched analyzer
/// interferometers, post-selected quantum-interference fringes and CHSH
/// violation on all 5 symmetric channel pairs.

#include <vector>

#include "qfc/io/fields.hpp"

#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/fit.hpp"
#include "qfc/photonics/microring.hpp"
#include "qfc/photonics/pump.hpp"
#include "qfc/sfwm/pair_source.hpp"
#include "qfc/timebin/chsh.hpp"
#include "qfc/timebin/franson.hpp"
#include "qfc/timebin/timebin_state.hpp"

namespace qfc::core {

struct TimebinConfig {
  photonics::DoublePulsePump pump;    ///< defaulted by make_default_pump()
  int num_channel_pairs = 5;
  double integration_s_per_point = 30.0;
  int fringe_points = 24;
  double interferometer_phase_noise_rms_rad = 0.12;
  /// Fraction of post-selected coincidences that are accidental.
  double accidental_fraction = 0.025;
  /// Per-arm detection probability (filters + coupling + detector).
  double detection_efficiency_per_arm = 0.17;
  std::uint64_t seed = 1176;  ///< Science 351, 1176 (ref [8])

  /// Paper-matched pulse train: ~16.8 MHz repetition, pump spectrally
  /// filtered to one resonance, time bins far apart vs photon coherence.
  /// The default average power (EDFA-amplified double pulses) is chosen so
  /// the mean pair number per double pulse is ~0.08 — the multi-pair
  /// regime in which the raw two-photon visibility lands at the paper's
  /// 83% (multi-photon rates need this much pump).
  static photonics::DoublePulsePump make_default_pump(
      const photonics::MicroringResonator& device, double average_power_w = 250e-3);

  QFC_FIELDS(TimebinConfig,
      QFC_FIELD(num_channel_pairs, io::between(1, 64), "symmetric comb channel pairs"),
      QFC_FIELD(integration_s_per_point, io::kPositive, "integration per fringe point [s]"),
      QFC_FIELD(fringe_points, io::between(4, 100000), "points per interference fringe"),
      QFC_FIELD(interferometer_phase_noise_rms_rad, io::kNonNegative,
                "analyzer phase noise RMS [rad]"),
      QFC_FIELD(accidental_fraction, {0.0, false, 1.0, true},
                "accidental fraction of coincidences"),
      QFC_FIELD(detection_efficiency_per_arm, io::kEfficiency, "per-arm detection probability"),
      QFC_FIELD(seed, io::kNonNegative, "experiment RNG seed"))

  /// The pump's own checks plus the table's ranges; throws
  /// std::invalid_argument("TimebinConfig.accidental_fraction: must be in
  /// [0, 1)"). Called by the constructor.
  void validate() const;
};

struct TimebinChannelResult {
  int k = 0;
  double mu_per_double_pulse = 0;       ///< multi-pair parameter
  detect::SinusoidFit fringe_fit;       ///< fitted quantum-interference fringe
  double predicted_visibility = 0;      ///< analytic model prediction
  timebin::ChshMeasurement chsh;        ///< CHSH at optimal settings
  timebin::FringeScan scan;             ///< raw fringe data

  QFC_JSON(TimebinChannelResult, k, mu_per_double_pulse, fringe_fit, predicted_visibility, chsh,
           scan)
};

class TimebinExperiment {
 public:
  TimebinExperiment(photonics::MicroringResonator device, TimebinConfig cfg,
                    sfwm::SfwmEfficiency eff = {});

  const sfwm::PulsedPairSource& source() const noexcept { return source_; }
  const TimebinConfig& config() const noexcept { return cfg_; }

  /// Noise model for channel pair k (μ from the pulsed source).
  timebin::TimebinNoiseModel noise_model(int k) const;

  /// Fringe + CHSH for one channel pair.
  TimebinChannelResult run_channel(int k);

  /// All channel pairs (the paper's "all 5 channels violate CHSH").
  std::vector<TimebinChannelResult> run_all_channels();

  /// Detected post-selected coincidences per second on channel k.
  double detected_coincidence_rate_hz(int k) const;

  /// CW-equivalent engine spec for channel pair k: pair rate = both-bin
  /// emission rate, linewidth from the ring, per-arm detection efficiency
  /// as the detector efficiency, unit channel transmission. Used by the QKD
  /// layer's link_channel_spec.
  detect::ChannelPairSpec cw_equivalent_spec(int k, double dark_rate_hz) const;

 private:
  photonics::MicroringResonator device_;
  TimebinConfig cfg_;
  sfwm::PulsedPairSource source_;
};

}  // namespace qfc::core
