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
      {{2010, 198.19664901506312, 1.5835497266400769e-05, 0.19999405649995994},
       {2597, 261.74438991159622, 9.6968707574721549e-05, 0.19998717072379427},
       {3185, 320.13792161060837, 0.00012923816201376102, 0.19999641679424873}},
      {{1630, 162.97511316011423, 0.00016240677334192257, 0.19996736459409281},
       {1817, 183.84674269152794, 2.0725474353820999e-05, 0.19992857691964352},
       {2091, 205.50057152133982, 3.7016556614995068e-05, 0.19983329159995011}},
      {179, 0, 1, 0, 229, 2, 0, 0, 295},
      {2, 1, 1, 1, 1, 3, 1, 2, 2},
      {{0, 0, 0, 0, 0, 0, 0, 1, 0, 31, 116, 30, 3, 2, 0, 1, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 1, 4, 7, 42, 123, 46, 13, 0, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 3, 12, 65, 152, 58, 18, 4, 0, 0, 0, 0, 0, 0, 0}}};
  static const Expected pulsed{
      {{1983, 197.49294970315395, 1.5499173494392862e-05, 0.19999405649995994},
       {2714, 270.83975178359066, 0.00020700020882994508, 0.19998717072379427},
       {3431, 343.9338692599631, 0.00012923816201376102, 0.19999530584790506}},
      {{1610, 161.03044759024229, 0.00015150022007093608, 0.19999050050558553},
       {1887, 189.07691981470981, 0.00016150029006795226, 0.19998700060014249},
       {2298, 226.67313445057272, 3.2499529751066902e-05, 0.19990249993663786}},
      {177, 4, 5, 5, 258, 6, 7, 9, 355},
      {4, 6, 12, 4, 16, 14, 11, 20, 17},
      {{0, 0, 0, 0, 0, 0, 0, 1, 6, 36, 103, 31, 4, 1, 0, 1, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 1, 2, 10, 50, 147, 48, 8, 4, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 1, 0, 0, 4, 18, 74, 182, 72, 18, 3, 1, 1, 0, 0, 0, 0, 0}}};
  static const Expected piecewise{
      {{1825, 185.35485788508186, 1.9002549727434525e-05, 0.19999405649995994},
       {2200, 222.93895385068467, 5.0069716222946502e-05, 0.19998717072379427},
       {2565, 255.35485878504505, 0.00012923816201376102, 0.19999641679424873}},
      {{1482, 153.04685364141184, 0.00019488804700603762, 0.19997293752711012},
       {1507, 153.19828882589454, 2.5561258191503731e-05, 0.19989295353698222},
       {1678, 165.74235053369844, 4.6534903623206878e-05, 0.1998617917101862}},
      {139, 0, 0, 0, 163, 2, 0, 0, 181},
      {1, 1, 1, 2, 1, 1, 2, 2, 1},
      {{0, 0, 0, 0, 0, 0, 1, 1, 4, 23, 86, 26, 3, 1, 0, 1, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 1, 0, 12, 30, 87, 34, 5, 1, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 2, 8, 37, 99, 32, 15, 5, 0, 0, 0, 0, 0, 0, 0}}};
  switch (mode) {
    case detect::EmissionMode::Cw: return cw;
    case detect::EmissionMode::Pulsed: return pulsed;
    case detect::EmissionMode::PiecewiseRates: break;
  }
  return piecewise;
}

}  // namespace qfc::golden
