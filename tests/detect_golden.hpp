#pragma once

// Golden detection-pipeline outputs: fixed-seed click tables and analysis
// counts for three 3-channel configurations, one per emission mode (Cw,
// Pulsed, PiecewiseRates), each with backgrounds, dark counts and dead time
// active. The values were recorded from the engine and are the bitwise
// contract every generation and analysis path must reproduce.
//
// Click counts and analysis counts are exact integers. Per-column timestamp
// sums and the first and last click are compared to 1e-12 relative, because
// the libm behind the exponential and normal samplers can differ in the
// last bit between hosts.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/detect/event_engine.hpp"

namespace qfc::golden {

constexpr double kDuration = 0.2;
constexpr std::uint64_t kSeed = 20261016;
constexpr std::size_t kChannels = 3;

// Analysis parameters of the recorded counts.
constexpr double kCarWindow = 8e-9;
constexpr double kCarSpacing = 100e-9;
constexpr int kCarSideWindows = 10;
constexpr double kCorrBin = 2e-9;
constexpr double kCorrRange = 20e-9;

inline detect::ChannelPairSpec spec(detect::EmissionMode mode, int k) {
  detect::ChannelPairSpec s;
  s.pair_rate_hz = 30000.0 + 7000.0 * k;
  s.linewidth_hz = 150e6 - 20e6 * k;
  s.transmission_signal = 0.7 + 0.05 * k;
  s.transmission_idler = 0.65;
  s.background_rate_signal_hz = 1500.0 + 500.0 * k;
  s.background_rate_idler_hz = 800.0 + 300.0 * k;
  s.detector_signal.efficiency = 0.3;
  s.detector_signal.dark_rate_hz = 4000.0 + 1000.0 * k;
  s.detector_signal.jitter_sigma_s = 80e-12;
  s.detector_signal.dead_time_s = 5e-6;
  s.detector_idler.efficiency = 0.25;
  s.detector_idler.dark_rate_hz = 3000.0;
  s.detector_idler.jitter_sigma_s = 100e-12;
  s.detector_idler.dead_time_s = 2e-6;
  s.emission = mode;
  switch (mode) {
    case detect::EmissionMode::Cw:
      break;
    case detect::EmissionMode::Pulsed:
      s.pair_rate_hz = 0;
      s.pulsed.repetition_rate_hz = 2e6;
      s.pulsed.mean_pairs_per_pulse = 0.015 + 0.005 * k;
      s.pulsed.pulse_sigma_s = 20e-12;
      s.pulsed.bin_separation_s = 500e-12;
      s.pulsed.late_fraction = 0.4;
      break;
    case detect::EmissionMode::PiecewiseRates:
      s.pair_rate_hz = 0;
      s.segments = {{0.08, 25000.0 + 5000.0 * k, 1000.0, 500.0, 300.0, 200.0},
                    {0.07, 8000.0, 0.0, 2000.0, 0.0, 600.0},
                    {0.05, 40000.0, 500.0, 0.0, 1000.0, 0.0}};
      break;
  }
  return s;
}

inline std::vector<detect::ChannelPairSpec> specs(detect::EmissionMode mode) {
  std::vector<detect::ChannelPairSpec> out;
  for (int k = 0; k < static_cast<int>(kChannels); ++k) out.push_back(spec(mode, k));
  return out;
}

inline detect::EngineConfig engine_config(int num_threads = 2) {
  detect::EngineConfig ec;
  ec.duration_s = kDuration;
  ec.seed = kSeed;
  ec.num_threads = num_threads;
  return ec;
}

struct Column {
  std::size_t clicks;
  double sum, first, last;
};

struct Expected {
  Column signal[kChannels];
  Column idler[kChannels];
  std::uint64_t car_coincidences[kChannels * kChannels];
  /// Summed side-window counts (an empty sum reads 1: finalize_car_cells
  /// floors the accidental mean at 1 / K).
  std::uint64_t car_side_counts[kChannels * kChannels];
  std::vector<std::uint64_t> histograms[kChannels];
};

/// The recorded values of one emission mode (defined at the end of the file).
inline const Expected& expected(detect::EmissionMode mode);

inline const char* mode_name(detect::EmissionMode mode) {
  switch (mode) {
    case detect::EmissionMode::Cw: return "Cw";
    case detect::EmissionMode::Pulsed: return "Pulsed";
    case detect::EmissionMode::PiecewiseRates: return "PiecewiseRates";
  }
  return "?";
}

inline void expect_near_rel(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
      << what << ": got " << got << ", want " << want;
}

inline void expect_column(const detect::EventTable& table, std::size_t c,
                          const Column& want, const std::string& what) {
  ASSERT_EQ(table.channel_size(c), want.clicks) << what << " click count";
  if (want.clicks == 0) return;
  double sum = 0;
  for (const double* t = table.channel_begin(c); t != table.channel_end(c); ++t)
    sum += *t;
  expect_near_rel(sum, want.sum, what + " sum");
  expect_near_rel(*table.channel_begin(c), want.first, what + " first");
  expect_near_rel(*(table.channel_end(c) - 1), want.last, what + " last");
}

/// Click tables of one run against the recorded columns.
inline void expect_events(const detect::EngineResult& events, detect::EmissionMode mode) {
  const Expected& want = expected(mode);
  ASSERT_EQ(events.signal.num_channels(), kChannels);
  ASSERT_EQ(events.idler.num_channels(), kChannels);
  for (std::size_t c = 0; c < kChannels; ++c) {
    expect_column(events.signal, c, want.signal[c],
                  std::string(mode_name(mode)) + " signal " + std::to_string(c));
    expect_column(events.idler, c, want.idler[c],
                  std::string(mode_name(mode)) + " idler " + std::to_string(c));
  }
}

/// car_matrix cells: exact peak and side-window coincidence counts.
inline void expect_car(const detect::CarMatrix& m, detect::EmissionMode mode) {
  const Expected& want = expected(mode);
  ASSERT_EQ(m.num_signal, kChannels);
  ASSERT_EQ(m.num_idler, kChannels);
  for (std::size_t i = 0; i < kChannels * kChannels; ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(m.cells[i].coincidences),
              want.car_coincidences[i])
        << mode_name(mode) << " car cell " << i;
    const auto side = static_cast<std::uint64_t>(
        std::llround(m.cells[i].accidentals * kCarSideWindows));
    EXPECT_EQ(side, want.car_side_counts[i]) << mode_name(mode) << " car side cell " << i;
  }
}

/// The car_matrix diagonal, one CarResult per channel pair: the diagonal
/// cells of the same recorded counts.
inline void expect_car_pairs(const std::vector<detect::CarResult>& pairs,
                             detect::EmissionMode mode) {
  const Expected& want = expected(mode);
  ASSERT_EQ(pairs.size(), kChannels);
  for (std::size_t k = 0; k < kChannels; ++k) {
    const std::size_t i = k * kChannels + k;
    EXPECT_EQ(static_cast<std::uint64_t>(pairs[k].coincidences), want.car_coincidences[i])
        << mode_name(mode) << " car pair " << k;
    const auto side = static_cast<std::uint64_t>(
        std::llround(pairs[k].accidentals * kCarSideWindows));
    EXPECT_EQ(side, want.car_side_counts[i]) << mode_name(mode) << " car side pair " << k;
  }
}

inline void expect_histograms(const std::vector<detect::CoincidenceHistogram>& hists,
                              detect::EmissionMode mode) {
  const Expected& want = expected(mode);
  ASSERT_EQ(hists.size(), kChannels);
  for (std::size_t c = 0; c < kChannels; ++c)
    EXPECT_EQ(hists[c].counts, want.histograms[c]) << mode_name(mode) << " histogram " << c;
}

inline const Expected& expected(detect::EmissionMode mode) {
  static const Expected cw{
      {{2075, 209.20337310372591, 4.6798266267254293e-05, 0.19999405649995994},
       {2566, 257.52436536549646, 2.402380018346211e-05, 0.19998717072379427},
       {3213, 316.71839911730359, 0.00010183099684919095, 0.19999641679424873}},
      {{1613, 164.79367104131779, 0.00024942998419135462, 0.19996736459409281},
       {1800, 176.63759825266783, 1.9063067817344023e-05, 0.19999332757458385},
       {2032, 202.2233291026248, 7.8707078666394325e-05, 0.19992314492109112}},
      {161, 0, 0, 0, 238, 1, 0, 0, 296},
      {2, 2, 3, 1, 1, 1, 1, 2, 1},
      {{0, 0, 0, 0, 0, 1, 0, 0, 6, 29, 98, 28, 7, 2, 1, 2, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 1, 4, 44, 134, 50, 13, 7, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 1, 1, 1, 12, 62, 140, 74, 18, 6, 0, 2, 0, 0, 0, 0, 0}}};
  static const Expected pulsed{
      {{2019, 201.30332984188996, 4.6499237145686623e-05, 0.19999405649995994},
       {2788, 278.344289315531, 1.7500466899180056e-05, 0.19998717072379427},
       {3565, 359.6046653990731, 8.9500600935044626e-05, 0.19999641679424873}},
      {{1642, 162.57446288761906, 4.6500707733117979e-05, 0.19996736459409281},
       {1975, 197.37288348180292, 1.7500592097864582e-05, 0.19971400015686236},
       {2245, 228.99161188712912, 7.8707078666394325e-05, 0.19995899987309357}},
      {173, 5, 5, 8, 306, 12, 2, 12, 374},
      {5, 11, 10, 10, 8, 13, 10, 18, 18},
      {{0, 0, 0, 0, 0, 0, 1, 1, 4, 33, 108, 24, 7, 0, 0, 1, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 0, 12, 51, 184, 55, 14, 2, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 1, 2, 16, 85, 191, 75, 14, 7, 0, 0, 0, 0, 0, 0, 0}}};
  static const Expected piecewise{
      {{1870, 195.1786393222105, 5.6157859798200001e-05, 0.19999405649995994},
       {2185, 227.12907227507699, 2.962927362673668e-05, 0.19999456321436909},
       {2612, 259.60172471081751, 0.00012801627059942977, 0.19999641679424873}},
      {{1504, 158.42279232301871, 0.00029052369746940943, 0.19996736459409281},
       {1500, 147.78078835660315, 2.351059897569943e-05, 0.19990340622560135},
       {1614, 158.41983555191837, 7.8707078666394325e-05, 0.19987855673970839}},
      {128, 0, 0, 0, 156, 1, 1, 0, 175},
      {2, 4, 1, 1, 1, 2, 1, 2, 2},
      {{0, 0, 0, 0, 0, 0, 0, 1, 5, 23, 72, 26, 5, 3, 0, 1, 1, 0, 0, 0, 0},
       {0, 0, 1, 0, 0, 0, 0, 2, 4, 35, 81, 30, 11, 1, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 3, 10, 35, 84, 47, 7, 0, 0, 1, 0, 0, 0, 0, 0}}};
  switch (mode) {
    case detect::EmissionMode::Cw: return cw;
    case detect::EmissionMode::Pulsed: return pulsed;
    case detect::EmissionMode::PiecewiseRates: break;
  }
  return piecewise;
}

}  // namespace qfc::golden
