#pragma once

/// \file heralded.hpp
/// Sec. II end-to-end experiment: self-locked CW pumping of the high-Q
/// ring, multiplexed heralded single photons on 5 symmetric channel pairs.
/// Reproduces the coincidence "frequency matrix", the per-channel CAR /
/// pair-rate table, and the time-resolved coherence measurement.

#include <functional>
#include <vector>

#include "qfc/io/fields.hpp"

#include "qfc/core/channel_model.hpp"
#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/streaming.hpp"
#include "qfc/photonics/microring.hpp"
#include "qfc/photonics/pump.hpp"
#include "qfc/sfwm/pair_source.hpp"

namespace qfc::core {

struct HeraldedConfig {
  double pump_power_w = 15e-3;       ///< paper: 15 mW at the ring input
  int num_channel_pairs = 5;
  double duration_s = 60.0;          ///< integration time per measurement
  double coincidence_window_s = 8e-9;
  double side_window_spacing_s = 100e-9;
  ChannelModel channels{};
  std::uint64_t seed = 20170327;     ///< DATE'17 conference date
  /// Worker threads of the event streamer (0 = hardware concurrency).
  /// Results are bitwise independent of this value.
  int engine_threads = 0;

  QFC_FIELDS(HeraldedConfig,
      QFC_FIELD(pump_power_w, io::kPositive, "CW pump power at the ring [W]"),
      QFC_FIELD(num_channel_pairs, io::between(1, 64), "symmetric comb channel pairs"),
      QFC_FIELD(duration_s, io::kPositive, "integration time [s]"),
      QFC_FIELD(coincidence_window_s, io::kPositive, "coincidence window [s]"),
      QFC_FIELD(side_window_spacing_s, io::kPositive, "accidental side-window spacing [s]"),
      QFC_FIELD(seed, io::kNonNegative, "experiment RNG seed"))

  /// The table's ranges plus side_window_spacing_s > coincidence_window_s;
  /// throws std::invalid_argument("HeraldedConfig.duration_s: must be > 0").
  /// The constructor calls this, so an experiment always holds a valid config.
  void validate() const;
};

/// One (signal channel, idler channel) cell of the frequency matrix.
struct MatrixCell {
  int signal_k = 0;  ///< signal channel pair index (photon at pump + k FSR)
  int idler_k = 0;   ///< idler channel pair index (photon at pump − k FSR)
  detect::CarResult car;

  QFC_JSON(MatrixCell, signal_k, idler_k, car)
};

struct ChannelResult {
  int k = 0;
  double coincidence_rate_hz = 0;  ///< measured pair (coincidence) rate
  double car = 0;
  double car_err = 0;
  double singles_signal_hz = 0;
  double singles_idler_hz = 0;

  QFC_JSON(ChannelResult, k, coincidence_rate_hz, car, car_err, singles_signal_hz, singles_idler_hz)
};

struct CoherenceResult {
  detect::CoincidenceHistogram histogram;
  double fitted_tau_s = 0;
  double measured_linewidth_hz = 0;     ///< jitter-broadened (what the paper quotes)
  double deconvolved_linewidth_hz = 0;  ///< after jitter correction
  double ring_linewidth_hz = 0;         ///< ground truth of the device model

  QFC_JSON(CoherenceResult, histogram, fitted_tau_s, measured_linewidth_hz,
           deconvolved_linewidth_hz, ring_linewidth_hz)
};

class HeraldedPhotonExperiment {
 public:
  HeraldedPhotonExperiment(photonics::MicroringResonator device, HeraldedConfig cfg,
                           sfwm::SfwmEfficiency eff = {});

  const sfwm::CwPairSource& source() const noexcept { return source_; }
  const HeraldedConfig& config() const noexcept { return cfg_; }

  /// Full signal x idler coincidence matrix (paper: peaks only on the
  /// diagonal). Streams are shared across cells, so off-diagonal cells see
  /// genuinely accidental-only statistics.
  std::vector<MatrixCell> run_coincidence_matrix();

  /// Per-channel CAR and pair-rate table at the configured pump power.
  std::vector<ChannelResult> run_channel_table();

  /// Time-resolved coincidence measurement on channel pair k; fits the
  /// two-sided exponential and converts to a linewidth.
  CoherenceResult run_coherence_measurement(int k, double duration_s,
                                            double hist_bin_s = 0.5e-9,
                                            double hist_range_s = 25e-9);

 private:
  /// Engine spec for channel pair k: pair rate and linewidth from the
  /// SFWM source, transmission and detector from the collection chain.
  detect::ChannelPairSpec channel_spec(int k) const;
  std::vector<detect::ChannelPairSpec> all_channel_specs() const;
  /// Streams `specs` in windows of detect::bounded_window_s, so memory
  /// stays bounded however long the run: into `diagonal` (if set) inside
  /// the channel tasks, then through `on_window` (if set).
  void stream_events(std::vector<detect::ChannelPairSpec> specs, double duration_s,
                     std::uint64_t seed,
                     const std::function<void(const detect::StreamWindow&)>& on_window,
                     detect::DiagonalAccumulator* diagonal = nullptr) const;

  photonics::MicroringResonator device_;
  HeraldedConfig cfg_;
  sfwm::CwPairSource source_;
};

}  // namespace qfc::core
