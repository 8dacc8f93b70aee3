#pragma once

/// \file stability.hpp
/// Sec. II stability claim: the self-locked intra-cavity pumping scheme
/// keeps the source running for weeks with < 5% fluctuation and no active
/// stabilization, while an externally pumped ring drifts off resonance.
/// We model the ring resonance as thermally drifting (Ornstein-Uhlenbeck)
/// and compare the two locking schemes' pair-rate time series.

#include <vector>

#include "qfc/io/fields.hpp"

#include "qfc/detect/allan.hpp"
#include "qfc/photonics/microring.hpp"
#include "qfc/photonics/pump.hpp"
#include "qfc/photonics/self_locked.hpp"
#include "qfc/rng/ou_process.hpp"

namespace qfc::core {

struct StabilityConfig {
  double observation_days = 21.0;    ///< "several weeks"
  double sample_interval_s = 3600.0; ///< one sample per hour
  /// Ambient temperature drift: stationary RMS and correlation time.
  double temperature_rms_K = 0.5;
  double temperature_tau_s = 6.0 * 3600.0;
  /// The amplified fiber loop of the self-locked scheme; its mode spacing
  /// bounds the residual pump-resonance detuning (ref [6]).
  photonics::SelfLockedLoop loop{};
  /// Additional lasing-line jitter as a fraction of the ring linewidth
  /// (amplifier phase noise, mode-partition noise).
  double self_locked_residual_fraction = 0.02;
  std::uint64_t seed = 1023;  ///< Opt. Express 22, 1023 (ref [6])

  QFC_FIELDS(StabilityConfig,
      QFC_FIELD(observation_days, io::kPositive, "observation window [days]"),
      QFC_FIELD(sample_interval_s, io::kPositive, "sampling interval [s]"),
      QFC_FIELD(temperature_rms_K, io::kNonNegative, "ambient temperature drift RMS [K]"),
      QFC_FIELD(temperature_tau_s, io::kPositive, "temperature correlation time [s]"),
      QFC_FIELD(self_locked_residual_fraction, io::kNonNegative, "jitter [ring linewidths]"),
      QFC_FIELD(seed, io::kNonNegative, "drift RNG seed"))

  /// Throws std::invalid_argument("StabilityConfig.observation_days: must
  /// be > 0"), also when the observation is shorter than one sample
  /// interval. Called by the constructor.
  void validate() const;
};

struct StabilityTrace {
  std::vector<double> time_s;
  std::vector<double> relative_rate;  ///< pair rate / nominal rate
  double mean = 0;
  double rms_fluctuation_percent = 0;   ///< 100 * std/mean
  double peak_to_peak_percent = 0;

  std::size_t samples() const { return relative_rate.size(); }

  /// Summary statistics and the series length; the series themselves
  /// (large for multi-week runs) stay out.
  QFC_JSON(StabilityTrace, samples, mean, rms_fluctuation_percent, peak_to_peak_percent)
};

struct StabilityComparison {
  StabilityTrace self_locked;
  StabilityTrace external;

  QFC_JSON(StabilityComparison, self_locked, external)
};

/// Counting-statistics form of a stability run, derived from raw engine
/// click streams: the drifting relative rate becomes a piecewise-constant
/// emission schedule (detect::EmissionMode::PiecewiseRates, one
/// RateSegment per sample interval), the engine generates the signal/idler
/// click streams, and the per-interval counts are windowed coincidences of
/// those clicks. The overlapping Allan deviation of the fractional count
/// series is the metrology-grade statement of the "< 5% for weeks" claim.
struct CountedStabilityTrace {
  StabilityTrace trace;                   ///< underlying relative-rate series
  std::vector<double> counts;             ///< coincidences per interval, from clicks
  std::vector<detect::AllanPoint> allan;  ///< of counts / mean(counts)
  double mean_counts = 0;

  QFC_JSON(CountedStabilityTrace, trace, mean_counts, allan)
};

class StabilityExperiment {
 public:
  StabilityExperiment(photonics::MicroringResonator device, StabilityConfig cfg);

  /// Run both schemes over the configured observation window.
  StabilityComparison run();

  /// Counting-statistics run of one scheme: the scheme's relative-rate
  /// trace becomes a drifting PiecewiseRates emission schedule (pair rate
  /// = mean on-resonance coincidence rate x relative rate per interval),
  /// the event engine generates the click streams with ideal collection
  /// (unit efficiency, no darks — the counted quantity is the coincidence
  /// rate itself), each sample interval's count is the windowed
  /// signal-idler coincidence count of the raw clicks, and the fractional
  /// counts go through the overlapping Allan deviation. The run streams
  /// through the windowed engine (detect::EventStreamer, one window per
  /// sample interval) into a detect::StreamingAllanAccumulator, so click
  /// memory stays bounded by the busiest interval for multi-week
  /// observations; results are deterministic in cfg.seed (and independent
  /// of thread counts) by the streaming parity contract.
  CountedStabilityTrace run_counted_scheme(photonics::PumpLocking locking,
                                           double mean_coincidence_rate_hz);

  /// Pair rate relative to on-resonance for a given pump-resonance
  /// detuning: SFWM needs the pump resonant, so the rate follows the
  /// squared Lorentzian intracavity enhancement.
  double relative_rate_at_detuning(double detuning_hz) const;

 private:
  StabilityTrace run_scheme(photonics::PumpLocking locking, std::uint64_t seed);

  photonics::MicroringResonator device_;
  StabilityConfig cfg_;
};

}  // namespace qfc::core
