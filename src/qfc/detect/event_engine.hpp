#pragma once

/// \file event_engine.hpp
/// Columnar Monte-Carlo detection engine: generates correlated click
/// streams for N comb channel pairs into structure-of-arrays tables, and
/// analyzes every signal x idler combination with single merge-sweeps
/// instead of O(n²) pairwise re-scans of the full streams.
///
/// Layout (see src/qfc/detect/README.md): an EventTable holds one
/// contiguous timestamp column plus a parallel channel-id column, grouped
/// channel-major with CSR-style offsets. Within each channel the
/// timestamps are sorted ascending.
///
/// There is one detection pipeline, the windowed one of streaming.hpp.
/// EventEngine::run is that pipeline drained in a single window, and
/// car_matrix / correlate_all push one
/// whole-run window through the matching streaming accumulator. So the
/// determinism contract is the streaming one: output is bitwise identical
/// at every window size and generation thread count
/// (EngineConfig::num_threads). The analysis sweeps are serial here; the
/// streamer can run the diagonal ones inside its channel tasks.

#include <cstdint>
#include <vector>

#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/detector.hpp"
#include "qfc/detect/event_stream.hpp"

namespace qfc::detect {

/// Columnar (structure-of-arrays) click table for one detector bank.
struct EventTable {
  std::vector<double> time_s;          ///< click timestamps, channel-major
  std::vector<std::uint32_t> channel;  ///< channel id of each timestamp
  std::vector<std::size_t> offsets;    ///< channel c spans [offsets[c], offsets[c+1])

  std::size_t num_channels() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t size() const { return time_s.size(); }
  std::size_t channel_size(std::size_t c) const;
  const double* channel_begin(std::size_t c) const;
  const double* channel_end(std::size_t c) const;

  /// Copy of one channel's column, for the single-stream legacy APIs
  /// (measure_car, correlate, ...).
  std::vector<double> channel_clicks(std::size_t c) const;

  /// Build a table from per-channel columns (each must be sorted).
  static EventTable from_columns(std::vector<std::vector<double>> per_channel);

  bool operator==(const EventTable&) const = default;
};

/// How a channel pair's emission is distributed in time.
enum class EmissionMode {
  /// Homogeneous Poisson pair times at ChannelPairSpec::pair_rate_hz —
  /// the original engine behavior, bit-for-bit unchanged.
  Cw,
  /// Pair times locked to a pump pulse train (ChannelPairSpec::pulsed):
  /// per-pulse Poisson pair number, Gaussian envelope jitter, optional
  /// early/late double-pulse bins. pair_rate_hz must be 0 in this mode.
  Pulsed,
  /// Piecewise-constant pair/background/dark schedule
  /// (ChannelPairSpec::segments) for drifting sources. pair_rate_hz must
  /// be 0; spec-level backgrounds and detector dark rates stay active and
  /// compose additively with the per-segment rates.
  PiecewiseRates,
};

/// Pulse-train parameters consumed when emission == EmissionMode::Pulsed
/// (see PulsedStreamParams for the generation semantics; linewidth and
/// per-arm transmission come from the enclosing ChannelPairSpec).
struct PulsedEmission {
  double repetition_rate_hz = 0;   ///< pump pulse repetition rate
  double mean_pairs_per_pulse = 0; ///< mean pair number per repetition period
  double pulse_sigma_s = 0;        ///< Gaussian emission-time jitter (1σ)
  double bin_separation_s = 0;     ///< 0 = single pulse; > 0 = early/late bins
  double late_fraction = 0.5;      ///< probability a pair is born in the late bin
};

/// Physics + collection chain of one comb channel pair.
struct ChannelPairSpec {
  double pair_rate_hz = 0;            ///< on-chip generated pair rate (Cw mode)
  double linewidth_hz = 0;            ///< Lorentzian FWHM of both photons
  double transmission_signal = 1.0;   ///< channel transmission, signal arm
  double transmission_idler = 1.0;    ///< channel transmission, idler arm
  /// Uncorrelated in-band background photons reaching each arm's detector
  /// (leaked pump, fluorescence); thinned by detector efficiency like real
  /// photons, unlike DetectorParams::dark_rate_hz which clicks directly.
  double background_rate_signal_hz = 0;
  double background_rate_idler_hz = 0;
  DetectorParams detector_signal;
  DetectorParams detector_idler;
  /// Emission-model layer: how pair times are distributed over the run.
  EmissionMode emission = EmissionMode::Cw;
  PulsedEmission pulsed;              ///< used when emission == Pulsed
  std::vector<RateSegment> segments;  ///< used when emission == PiecewiseRates
};

struct EngineConfig {
  double duration_s = 1.0;
  std::uint64_t seed = 1;
  /// Worker threads for the per-channel passes; 0 = hardware concurrency.
  /// Output is bitwise independent of this value (see file comment).
  int num_threads = 0;
  /// Inert: the analysis sweeps are serial. Kept, and still rejected when
  /// negative, only because the repository benchmark sets it.
  int analysis_threads = 0;
};

/// Click tables for the two detector banks; channel c of each table is
/// channel pair c of the spec list.
struct EngineResult {
  EventTable signal;
  EventTable idler;
};

class EventEngine {
 public:
  explicit EventEngine(EngineConfig cfg);

  const EngineConfig& config() const noexcept { return cfg_; }

  /// Full chain for all channel pairs: correlated pair generation thinned
  /// by per-arm transmission × detector efficiency, uncorrelated background
  /// injection thinned by efficiency, detector jitter, dark counts, sort,
  /// dead time. Equal to the concatenated windows of an EventStreamer over
  /// the same inputs.
  EngineResult run(const std::vector<ChannelPairSpec>& channels) const;

 private:
  EngineConfig cfg_;
};

/// Inert shims: the analysis sweeps are serial. The setter accepts any
/// value and does nothing; both getters return 1. Kept only because the
/// repository benchmark sets and records them.
void set_analysis_threads(unsigned n);
unsigned analysis_threads();
unsigned analysis_thread_request();

/// Δt histograms for the diagonal (signal k, idler k) channel pairs, all
/// built in one sweep over the two tables (StreamingCorrelatorAccumulator's
/// sweep over one whole-run window). `num_threads` is inert (the
/// sweep is serial), kept only because the repository benchmark passes it;
/// a negative value is still rejected.
std::vector<CoincidenceHistogram> correlate_all(const EventTable& signal,
                                                const EventTable& idler,
                                                double bin_width_s, double range_s,
                                                int num_threads = 0);

struct CarMatrix {
  std::size_t num_signal = 0;
  std::size_t num_idler = 0;
  std::vector<CarResult> cells;  ///< row-major num_signal x num_idler

  const CarResult& at(std::size_t s, std::size_t i) const;
};

/// measure_car for every signal x idler combination in a single
/// merge-sweep: peak window plus `num_side_windows` accidental windows at
/// multiples of `side_window_spacing_s` (alternating sides), with the same
/// counting and error semantics as measure_car. `num_threads` is inert, as
/// in correlate_all.
CarMatrix car_matrix(const EventTable& signal, const EventTable& idler,
                     double window_s, double side_window_spacing_s,
                     int num_side_windows = 10, int num_threads = 0);

/// Mean generated pair rate of a spec over the run, whatever the emission
/// mode: Cw reads pair_rate_hz directly, Pulsed is mean_pairs_per_pulse x
/// repetition rate, PiecewiseRates is the duration-weighted mean of the
/// segment pair rates. This is the flux a neighboring frequency bin leaks
/// (see apply_adjacent_crosstalk) and what spec-level planning tools should
/// use to size a many-channel run.
double mean_pair_rate_hz(const ChannelPairSpec& spec);

/// Adjacent-bin cross-talk injection at the spec level, before a batch or
/// streaming run: channel i sits on comb bin `comb_bin[i]` and receives a
/// fraction `leakage_fraction[i]` of the photon flux of every spec on an
/// adjacent bin (|Δbin| == 1) — imperfect demultiplexer isolation. The
/// leaked flux (mean_pair_rate_hz of each neighbor, one photon per arm per
/// pair) rides channel i's own span, so it is scaled by channel i's arm
/// transmissions and folded into background_rate_{signal,idler}_hz, where it
/// is thinned by detector efficiency like any other in-band background and
/// raises the accidental floor without creating true coincidences.
/// Channels with leakage_fraction <= 0 are left bit-for-bit untouched, so a
/// zero-leakage network is bitwise identical to one planned without this
/// call. Throws std::invalid_argument on size mismatches or a leakage
/// fraction outside [0, 1].
void apply_adjacent_crosstalk(std::vector<ChannelPairSpec>& specs,
                              const std::vector<int>& comb_bin,
                              const std::vector<double>& leakage_fraction);

}  // namespace qfc::detect
