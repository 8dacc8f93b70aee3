#pragma once

/// \file type2_experiment.hpp
/// Sec. III end-to-end experiment: bichromatic orthogonally polarized
/// pumping, polarizing beam splitter, cross-polarized coincidence peak
/// (CAR ≈ 10 at 2 mW) and the OPO power curve (threshold 14 mW).

#include <vector>

#include "qfc/io/fields.hpp"

#include "qfc/core/channel_model.hpp"
#include "qfc/detect/coincidence.hpp"
#include "qfc/photonics/microring.hpp"
#include "qfc/sfwm/type2.hpp"

namespace qfc::core {

struct Type2Config {
  double pump_power_total_w = 2e-3;  ///< split equally between TE and TM
  int num_channel_pairs = 3;
  double duration_s = 600.0;
  /// The 80 MHz device's photons are ~2 ns long; an 8 ns window captures
  /// most of the coincidence peak.
  double coincidence_window_s = 8e-9;
  double side_window_spacing_s = 100e-9;
  /// The polarizing beam splitter routes TE to arm A and TM to arm B with
  /// finite extinction; leakage adds uncorrelated background.
  double pbs_extinction_db = 25.0;
  /// Free-running detectors with tighter spectral filtering than the
  /// Sec. II setup: ~0.9 kHz background (this is what puts CAR ≈ 10 at
  /// 2 mW given the low type-II pair rate).
  ChannelModel channels{
      /*base_transmission=*/0.90, /*transmission_ripple=*/0.08,
      /*base_dark_rate_hz=*/1.15e3, /*dark_rate_ripple=*/0.15,
      /*detector_efficiency=*/0.225, /*jitter_sigma_s=*/120e-12,
      /*dead_time_s=*/10e-6};
  std::uint64_t seed = 8236;  ///< Nat. Commun. article number of ref [7]

  QFC_FIELDS(Type2Config,
      QFC_FIELD(pump_power_total_w, io::kPositive, "total bichromatic pump power [W]"),
      QFC_FIELD(num_channel_pairs, io::between(1, 64), "symmetric comb channel pairs"),
      QFC_FIELD(duration_s, io::kPositive, "integration time [s]"),
      QFC_FIELD(coincidence_window_s, io::kPositive, "coincidence window [s]"),
      QFC_FIELD(side_window_spacing_s, io::kPositive, "accidental side-window spacing [s]"),
      QFC_FIELD(pbs_extinction_db, io::kPositive, "PBS polarization extinction [dB]"),
      QFC_FIELD(seed, io::kNonNegative, "experiment RNG seed"))

  /// The table's ranges plus side_window_spacing_s > coincidence_window_s;
  /// throws std::invalid_argument("Type2Config.duration_s: must be > 0").
  /// Called by the constructor.
  void validate() const;
};

struct Type2CarResult {
  double pump_power_w = 0;
  detect::CarResult car;
  double pair_rate_on_chip_hz = 0;
  double coincidence_rate_hz = 0;

  QFC_JSON(Type2CarResult, pump_power_w, car, pair_rate_on_chip_hz, coincidence_rate_hz)
};

class Type2Experiment {
 public:
  Type2Experiment(photonics::MicroringResonator device, Type2Config cfg,
                  sfwm::SfwmEfficiency eff = {});

  const sfwm::Type2PairSource& source() const noexcept { return source_; }

  /// Cross-polarized coincidence measurement at the configured power.
  Type2CarResult run_car_measurement();

  /// CAR vs pump power sweep (rebuilds the source per point).
  std::vector<Type2CarResult> run_power_sweep(const std::vector<double>& powers_w);

  /// OPO output-power transfer curve over the given pump range.
  struct OpoPoint {
    double pump_w;
    double output_w;
    bool oscillating;

    QFC_JSON(OpoPoint, pump_w, output_w, oscillating)
  };
  std::vector<OpoPoint> run_opo_curve(double max_pump_w, int num_points) const;

  double opo_threshold_w() const;

  /// Stimulated-FWM suppression of this device (paper: "completely
  /// suppressed").
  double stimulated_suppression_db() const;

 private:
  static sfwm::Type2PairSource make_source(const photonics::MicroringResonator& device,
                                           double total_power_w, int num_pairs,
                                           sfwm::SfwmEfficiency eff);
  Type2CarResult measure_at(double total_power_w, std::uint64_t seed_offset);

  photonics::MicroringResonator device_;
  Type2Config cfg_;
  sfwm::SfwmEfficiency eff_;
  sfwm::Type2PairSource source_;
};

}  // namespace qfc::core
