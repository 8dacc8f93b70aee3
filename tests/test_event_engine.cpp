// Tests for the batched columnar event engine: SoA table layout, bitwise
// equivalence with the legacy per-channel chain, thread-count determinism,
// merge-sweep analysis vs the single-pair analyzers, and the engine-backed
// cross-checks in the core layer.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/detect/channel_rng.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/linalg/backend.hpp"

namespace {

using namespace qfc;
using detect::ChannelPairSpec;
using detect::EngineConfig;
using detect::EngineResult;
using detect::EventEngine;
using detect::EventTable;

std::vector<ChannelPairSpec> test_specs(int n) {
  std::vector<ChannelPairSpec> specs;
  for (int k = 0; k < n; ++k) {
    ChannelPairSpec s;
    s.pair_rate_hz = 20000.0 + 1500.0 * k;
    s.linewidth_hz = 110e6;
    s.transmission_signal = 0.8;
    s.transmission_idler = 0.75;
    s.detector_signal.efficiency = 0.25;
    s.detector_signal.dark_rate_hz = 5e3;
    s.detector_signal.jitter_sigma_s = 120e-12;
    s.detector_signal.dead_time_s = 1e-6;
    s.detector_idler = s.detector_signal;
    s.detector_idler.efficiency = 0.2;
    specs.push_back(s);
  }
  return specs;
}

TEST(EventTable, FromColumnsLayoutAndAccessors) {
  const auto t = EventTable::from_columns({{1.0, 2.0}, {}, {0.5, 0.75, 3.0}});
  EXPECT_EQ(t.num_channels(), 3u);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.channel_size(0), 2u);
  EXPECT_EQ(t.channel_size(1), 0u);
  EXPECT_EQ(t.channel_size(2), 3u);
  EXPECT_EQ(t.channel_clicks(2), (std::vector<double>{0.5, 0.75, 3.0}));
  EXPECT_EQ(t.channel, (std::vector<std::uint32_t>{0, 0, 2, 2, 2}));
  EXPECT_EQ(t.offsets, (std::vector<std::size_t>{0, 2, 2, 5}));
  EXPECT_THROW(t.channel_clicks(3), std::out_of_range);
}

TEST(EventTable, FromColumnsRejectsUnsorted) {
  EXPECT_THROW(EventTable::from_columns({{2.0, 1.0}}), std::invalid_argument);
}

TEST(EventEngine, MatchesHandRolledPipelineBitwise) {
  // The engine's per-channel pipeline must reproduce the hand-rolled
  // generate -> detect chain exactly when the chain is driven with the
  // documented per-stage sub-streams (channel_rng.hpp): pair emission on
  // stream 1, detection/darks on streams 6/7 (signal) and 9/10 (idler).
  const auto specs = test_specs(3);
  EngineConfig ec;
  ec.duration_s = 2.0;
  ec.seed = 99;
  ec.num_threads = 1;
  const EngineResult res = EventEngine(ec).run(specs);

  rng::Xoshiro256 master(99);
  for (std::size_t c = 0; c < specs.size(); ++c) {
    rng::Xoshiro256 g = master.fork(static_cast<std::uint64_t>(c + 1));
    detect::detail::ChannelRngs r = detect::detail::fork_channel_rngs(g);
    detect::PairStreamParams p;
    p.pair_rate_hz = specs[c].pair_rate_hz;
    p.linewidth_hz = specs[c].linewidth_hz;
    p.duration_s = ec.duration_s;
    p.transmission_a = specs[c].transmission_signal;
    p.transmission_b = specs[c].transmission_idler;
    const auto photons = detect::generate_pair_arrivals(p, r.pair);
    const detect::SinglePhotonDetector ds(specs[c].detector_signal);
    const detect::SinglePhotonDetector di(specs[c].detector_idler);
    const std::vector<double> no_extra_darks;
    EXPECT_EQ(res.signal.channel_clicks(c),
              ds.detect(photons.a, no_extra_darks, ec.duration_s, r.det_a, r.dark_a));
    EXPECT_EQ(res.idler.channel_clicks(c),
              di.detect(photons.b, no_extra_darks, ec.duration_s, r.det_b, r.dark_b));
  }
}

TEST(EventEngine, BitwiseInvariantAcrossThreadCounts) {
  const auto specs = test_specs(5);
  EngineConfig ec;
  ec.duration_s = 1.0;
  ec.seed = 7;
  ec.num_threads = 1;
  const EngineResult r1 = EventEngine(ec).run(specs);
  ec.num_threads = 3;
  const EngineResult r3 = EventEngine(ec).run(specs);
  ec.num_threads = 8;
  const EngineResult r8 = EventEngine(ec).run(specs);
  EXPECT_EQ(r1.signal, r3.signal);
  EXPECT_EQ(r1.idler, r3.idler);
  EXPECT_EQ(r1.signal, r8.signal);
  EXPECT_EQ(r1.idler, r8.idler);
}

TEST(EventEngine, CarStatisticallyMatchesLegacySingleStream) {
  // Same physics, independent seeds: the engine CAR and the legacy
  // single-stream CAR must agree within their Poisson errors.
  ChannelPairSpec spec;
  spec.pair_rate_hz = 2000;
  spec.linewidth_hz = 100e6;
  spec.detector_signal.efficiency = 1.0;
  spec.detector_signal.dark_rate_hz = 3000;
  spec.detector_signal.jitter_sigma_s = 0;
  spec.detector_signal.dead_time_s = 0;
  spec.detector_idler = spec.detector_signal;

  EngineConfig ec;
  ec.duration_s = 30.0;
  ec.seed = 11;
  const EngineResult res = EventEngine(ec).run({spec});
  const auto engine_car =
      detect::car_matrix(res.signal, res.idler, 20e-9, 200e-9).at(0, 0);

  rng::Xoshiro256 g(1234);
  detect::PairStreamParams p;
  p.pair_rate_hz = spec.pair_rate_hz;
  p.linewidth_hz = spec.linewidth_hz;
  p.duration_s = ec.duration_s;
  const auto photons = detect::generate_pair_arrivals(p, g);
  const detect::SinglePhotonDetector det(spec.detector_signal);
  const auto a = det.detect(photons.a, ec.duration_s, g);
  const auto b = det.detect(photons.b, ec.duration_s, g);
  const auto legacy_car = detect::measure_car(a, b, 20e-9, 200e-9);

  const double err = std::sqrt(engine_car.car_err * engine_car.car_err +
                               legacy_car.car_err * legacy_car.car_err);
  EXPECT_NEAR(engine_car.car, legacy_car.car, 5.0 * err);
  EXPECT_GT(engine_car.car, 10.0);  // sanity: clearly correlated
}

TEST(EventEngine, DarkCountsLowerCar) {
  ChannelPairSpec quiet;
  quiet.pair_rate_hz = 2000;
  quiet.linewidth_hz = 100e6;
  quiet.detector_signal.efficiency = 0.5;
  quiet.detector_signal.dark_rate_hz = 0;
  quiet.detector_signal.jitter_sigma_s = 0;
  quiet.detector_signal.dead_time_s = 0;
  quiet.detector_idler = quiet.detector_signal;
  ChannelPairSpec noisy = quiet;
  noisy.detector_signal.dark_rate_hz = 30e3;
  noisy.detector_idler.dark_rate_hz = 30e3;

  EngineConfig ec;
  ec.duration_s = 20.0;
  ec.seed = 3;
  const EngineResult res = EventEngine(ec).run({quiet, noisy});
  const auto matrix = detect::car_matrix(res.signal, res.idler, 10e-9, 100e-9);
  EXPECT_GT(matrix.at(0, 0).car, 3.0 * matrix.at(1, 1).car);
  EXPECT_GT(matrix.at(1, 1).car, 1.0);  // still correlated, just a lower CAR
}

TEST(EventEngine, BackgroundInjectionRaisesSingles) {
  ChannelPairSpec spec;
  spec.pair_rate_hz = 0;
  spec.linewidth_hz = 100e6;
  spec.background_rate_signal_hz = 50e3;
  spec.detector_signal.efficiency = 0.5;
  spec.detector_signal.dark_rate_hz = 0;
  spec.detector_signal.jitter_sigma_s = 0;
  spec.detector_signal.dead_time_s = 0;
  spec.detector_idler = spec.detector_signal;

  EngineConfig ec;
  ec.duration_s = 10.0;
  ec.seed = 5;
  const EngineResult res = EventEngine(ec).run({spec});
  // Background photons are thinned by the detector efficiency.
  EXPECT_NEAR(static_cast<double>(res.signal.channel_size(0)), 250e3, 5e3);
  EXPECT_EQ(res.idler.channel_size(0), 0u);
}

TEST(EventEngine, ValidationErrors) {
  EXPECT_THROW(EventEngine(EngineConfig{0.0, 1, 0}), std::invalid_argument);
  EXPECT_THROW(EventEngine(EngineConfig{1.0, 1, -2}), std::invalid_argument);
  ChannelPairSpec bad;
  bad.pair_rate_hz = 1000;
  bad.linewidth_hz = 0;  // rejected by the generation kernel
  EngineConfig ec;
  EXPECT_THROW(EventEngine(ec).run({bad}), std::invalid_argument);
  bad.linewidth_hz = 100e6;
  bad.background_rate_signal_hz = -1;
  EXPECT_THROW(EventEngine(ec).run({bad}), std::invalid_argument);
}

// ------------------------------------------------------- emission-model layer

ChannelPairSpec pulsed_test_spec(double mean_pairs_per_pulse, double bin_separation_s) {
  ChannelPairSpec s;
  s.emission = detect::EmissionMode::Pulsed;
  s.linewidth_hz = 110e6;
  s.pulsed.repetition_rate_hz = 16.8e6;
  s.pulsed.mean_pairs_per_pulse = mean_pairs_per_pulse;
  s.pulsed.bin_separation_s = bin_separation_s;
  s.pulsed.pulse_sigma_s = 1e-9;
  s.detector_signal.efficiency = 1.0;
  s.detector_signal.dark_rate_hz = 0;
  s.detector_signal.jitter_sigma_s = 0;
  s.detector_signal.dead_time_s = 0;
  s.detector_idler = s.detector_signal;
  return s;
}

TEST(EmissionModes, CwSpecIsBitwiseUnchangedByTheLayer) {
  // A default-constructed spec is EmissionMode::Cw; the engine output must
  // equal the hand-rolled chain (generate_pair_arrivals + inject + detect
  // on the per-stage sub-streams of channel_rng.hpp), which
  // EventEngine.MatchesHandRolledPipelineBitwise pins. Here additionally
  // pin that the enum default really is Cw and that the overload with no
  // extra darks is the plain detect path.
  EXPECT_EQ(ChannelPairSpec{}.emission, detect::EmissionMode::Cw);

  rng::Xoshiro256 g1(5), g2(5);
  const detect::SinglePhotonDetector det(detect::DetectorParams{});
  const std::vector<double> arrivals{0.1, 0.2, 0.5};
  EXPECT_EQ(det.detect(arrivals, 1.0, g1), det.detect(arrivals, {}, 1.0, g2));
}

TEST(EmissionModes, PulsedClicksLockedToPulseTrain) {
  // Single-pulse mode, ideal detectors: every click must sit within a few
  // ns (envelope jitter + Laplace delay) of a pulse-train slot.
  auto spec = pulsed_test_spec(0.01, 0.0);
  EngineConfig ec;
  ec.duration_s = 0.02;
  ec.seed = 31;
  const EngineResult res = EventEngine(ec).run({spec});

  const double period = 1.0 / spec.pulsed.repetition_rate_hz;
  const double n_pulses = ec.duration_s / period;
  const double expected = spec.pulsed.mean_pairs_per_pulse * n_pulses;
  EXPECT_NEAR(static_cast<double>(res.signal.channel_size(0)), expected,
              5.0 * std::sqrt(expected));

  for (const double t : res.signal.channel_clicks(0)) {
    const double phase = std::abs(t - std::round(t / period) * period);
    EXPECT_LT(phase, 12e-9) << "click at " << t << " not pulse-locked";
  }
}

TEST(EmissionModes, PulsedBitwiseDeterministicAcrossThreadCounts) {
  std::vector<ChannelPairSpec> specs;
  for (int k = 0; k < 5; ++k)
    specs.push_back(pulsed_test_spec(0.002 + 0.001 * k, k % 2 ? 20e-9 : 0.0));
  EngineConfig ec;
  ec.duration_s = 0.05;
  ec.seed = 17;
  ec.num_threads = 1;
  const EngineResult r1 = EventEngine(ec).run(specs);
  ec.num_threads = 2;
  const EngineResult r2 = EventEngine(ec).run(specs);
  ec.num_threads = 4;
  const EngineResult r4 = EventEngine(ec).run(specs);
  EXPECT_EQ(r1.signal, r2.signal);
  EXPECT_EQ(r1.idler, r2.idler);
  EXPECT_EQ(r1.signal, r4.signal);
  EXPECT_EQ(r1.idler, r4.idler);
}

TEST(EmissionModes, DoublePulseHistogramResolvesThreePeaks) {
  // High per-pulse mean so multi-pair cross-bin accidentals populate the
  // ±ΔT side peaks; same-bin true coincidences dominate the center.
  const double dT = 20e-9;
  auto spec = pulsed_test_spec(0.3, dT);
  EngineConfig ec;
  ec.duration_s = 0.01;
  ec.seed = 23;
  const EngineResult res = EventEngine(ec).run({spec});

  const auto hists = detect::correlate_all(res.signal, res.idler, dT / 16.0, 1.5 * dT);
  // Counts within ±ΔT/4 of a peak at Δt = t0.
  const auto peak = [&](double t0) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < hists[0].counts.size(); ++i)
      if (std::abs(hists[0].bin_time(i) - t0) <= dT / 4.0) n += hists[0].counts[i];
    return n;
  };
  const std::uint64_t early_late = peak(-dT), same_bin = peak(0.0), late_early = peak(dT);
  EXPECT_GT(early_late, 100u);
  EXPECT_GT(late_early, 100u);
  EXPECT_GT(same_bin, early_late + late_early);
  // The two cross-bin combinations are statistically symmetric.
  const double side_mean =
      (static_cast<double>(early_late) + static_cast<double>(late_early)) / 2.0;
  EXPECT_GT(static_cast<double>(same_bin) / side_mean, 2.0);
  EXPECT_NEAR(static_cast<double>(early_late), side_mean, 6.0 * std::sqrt(side_mean));
}

TEST(EmissionModes, PiecewiseSegmentCountsMatchSegmentRates) {
  // Two segments at different pair rates, ideal detectors: each half of
  // the run must count at its own segment's rate.
  ChannelPairSpec spec;
  spec.emission = detect::EmissionMode::PiecewiseRates;
  spec.linewidth_hz = 110e6;
  spec.segments = {detect::RateSegment{2.0, 5e3, 0, 0, 0, 0},
                   detect::RateSegment{2.0, 20e3, 0, 0, 0, 0}};
  spec.detector_signal.efficiency = 1.0;
  spec.detector_signal.dark_rate_hz = 0;
  spec.detector_signal.jitter_sigma_s = 0;
  spec.detector_signal.dead_time_s = 0;
  spec.detector_idler = spec.detector_signal;

  EngineConfig ec;
  ec.duration_s = 4.0;
  ec.seed = 29;
  const EngineResult res = EventEngine(ec).run({spec});

  const auto clicks = res.signal.channel_clicks(0);
  const auto split = std::lower_bound(clicks.begin(), clicks.end(), 2.0);
  const double first = static_cast<double>(std::distance(clicks.begin(), split));
  const double second = static_cast<double>(std::distance(split, clicks.end()));
  EXPECT_NEAR(first, 10e3, 5.0 * std::sqrt(10e3));
  EXPECT_NEAR(second, 40e3, 5.0 * std::sqrt(40e3));
}

TEST(EmissionModes, PiecewiseDarksAndBackgroundsCompose) {
  // Segment darks click directly (no efficiency thinning); segment
  // backgrounds are thinned like photons; both add to the spec-level
  // homogeneous rates.
  ChannelPairSpec spec;
  spec.emission = detect::EmissionMode::PiecewiseRates;
  spec.linewidth_hz = 110e6;
  spec.segments = {detect::RateSegment{10.0, 0, /*bg_s=*/40e3, 0, /*dark_s=*/10e3, 0}};
  spec.background_rate_signal_hz = 20e3;  // homogeneous, thinned
  spec.detector_signal.efficiency = 0.5;
  spec.detector_signal.dark_rate_hz = 5e3;  // homogeneous, direct
  spec.detector_signal.jitter_sigma_s = 0;
  spec.detector_signal.dead_time_s = 0;
  spec.detector_idler = spec.detector_signal;
  spec.detector_idler.dark_rate_hz = 0;

  EngineConfig ec;
  ec.duration_s = 10.0;
  ec.seed = 37;
  const EngineResult res = EventEngine(ec).run({spec});

  // Signal arm: 0.5 * (20k + 40k) photons + 5k + 10k darks = 45 kHz.
  const double expected_s = (0.5 * 60e3 + 15e3) * ec.duration_s;
  EXPECT_NEAR(static_cast<double>(res.signal.channel_size(0)), expected_s,
              5.0 * std::sqrt(expected_s));
  EXPECT_EQ(res.idler.channel_size(0), 0u);
}

TEST(EmissionModes, PiecewiseBitwiseDeterministicAcrossThreadCounts) {
  std::vector<ChannelPairSpec> specs;
  for (int k = 0; k < 4; ++k) {
    ChannelPairSpec spec;
    spec.emission = detect::EmissionMode::PiecewiseRates;
    spec.linewidth_hz = 110e6;
    spec.segments = {detect::RateSegment{0.5, 10e3 + 1e3 * k, 2e3, 1e3, 500, 250},
                     detect::RateSegment{0.5, 30e3 - 2e3 * k, 1e3, 2e3, 250, 500}};
    spec.detector_signal.efficiency = 0.4;
    spec.detector_signal.dark_rate_hz = 1e3;
    spec.detector_idler = spec.detector_signal;
    specs.push_back(spec);
  }
  EngineConfig ec;
  ec.duration_s = 1.0;
  ec.seed = 41;
  ec.num_threads = 1;
  const EngineResult r1 = EventEngine(ec).run(specs);
  ec.num_threads = 2;
  const EngineResult r2 = EventEngine(ec).run(specs);
  ec.num_threads = 4;
  const EngineResult r4 = EventEngine(ec).run(specs);
  EXPECT_EQ(r1.signal, r2.signal);
  EXPECT_EQ(r1.idler, r2.idler);
  EXPECT_EQ(r1.signal, r4.signal);
  EXPECT_EQ(r1.idler, r4.idler);
}

TEST(EmissionModes, ValidationErrors) {
  EngineConfig ec;
  ec.duration_s = 1.0;

  ChannelPairSpec pulsed = pulsed_test_spec(0.01, 0.0);
  pulsed.pair_rate_hz = 1000;  // ambiguous: rate comes from the train
  EXPECT_THROW(EventEngine(ec).run({pulsed}), std::invalid_argument);
  pulsed.pair_rate_hz = 0;
  pulsed.pulsed.bin_separation_s = 1.0;  // >= repetition period
  EXPECT_THROW(EventEngine(ec).run({pulsed}), std::invalid_argument);
  pulsed.pulsed.bin_separation_s = 0;
  pulsed.pulsed.late_fraction = 1.5;
  EXPECT_THROW(EventEngine(ec).run({pulsed}), std::invalid_argument);

  ChannelPairSpec piecewise;
  piecewise.emission = detect::EmissionMode::PiecewiseRates;
  piecewise.linewidth_hz = 100e6;
  piecewise.segments = {detect::RateSegment{0.25, 1e3, 0, 0, 0, 0}};  // covers 0.25 < 1.0
  EXPECT_THROW(EventEngine(ec).run({piecewise}), std::invalid_argument);
  piecewise.segments = {detect::RateSegment{1.0, -1.0, 0, 0, 0, 0}};
  EXPECT_THROW(EventEngine(ec).run({piecewise}), std::invalid_argument);
  piecewise.segments = {detect::RateSegment{1.0, 1e3, 0, 0, 0, 0}};
  piecewise.pair_rate_hz = 1000;  // ambiguous: segments carry the rate
  EXPECT_THROW(EventEngine(ec).run({piecewise}), std::invalid_argument);
  piecewise.pair_rate_hz = 0;
  piecewise.segments.clear();
  EXPECT_THROW(EventEngine(ec).run({piecewise}), std::invalid_argument);
}

TEST(BatchedAnalysis, CarMatrixMatchesMeasureCar) {
  const auto specs = test_specs(3);
  EngineConfig ec;
  ec.duration_s = 5.0;
  ec.seed = 42;
  const EngineResult res = EventEngine(ec).run(specs);

  const double window = 8e-9, spacing = 100e-9;
  const auto matrix = detect::car_matrix(res.signal, res.idler, window, spacing);
  ASSERT_EQ(matrix.num_signal, 3u);
  ASSERT_EQ(matrix.num_idler, 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t i = 0; i < 3; ++i) {
      const auto legacy = detect::measure_car(res.signal.channel_clicks(s),
                                              res.idler.channel_clicks(i), window,
                                              spacing);
      const auto& cell = matrix.at(s, i);
      EXPECT_DOUBLE_EQ(cell.coincidences, legacy.coincidences) << s << "," << i;
      EXPECT_DOUBLE_EQ(cell.accidentals, legacy.accidentals) << s << "," << i;
      EXPECT_DOUBLE_EQ(cell.car, legacy.car) << s << "," << i;
      EXPECT_DOUBLE_EQ(cell.car_err, legacy.car_err) << s << "," << i;
    }
  }
}

TEST(BatchedAnalysis, CorrelateAllMatchesCorrelate) {
  const auto specs = test_specs(2);
  EngineConfig ec;
  ec.duration_s = 5.0;
  ec.seed = 21;
  const EngineResult res = EventEngine(ec).run(specs);

  const auto hists = detect::correlate_all(res.signal, res.idler, 0.5e-9, 20e-9);
  ASSERT_EQ(hists.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto legacy = detect::correlate(res.signal.channel_clicks(c),
                                          res.idler.channel_clicks(c), 0.5e-9, 20e-9);
    EXPECT_EQ(hists[c].counts, legacy.counts) << "channel " << c;
    EXPECT_DOUBLE_EQ(hists[c].bin_width_s, legacy.bin_width_s);
  }
}

// ------------------------------------------- inert analysis thread knobs

void expect_car_matrices_equal(const detect::CarMatrix& a, const detect::CarMatrix& b,
                               const char* what) {
  ASSERT_EQ(a.num_signal, b.num_signal) << what;
  ASSERT_EQ(a.num_idler, b.num_idler) << what;
  ASSERT_EQ(a.cells.size(), b.cells.size()) << what;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    // Exact (bitwise) double comparison on purpose: the inert thread
    // argument must not move a single count.
    EXPECT_EQ(a.cells[i].coincidences, b.cells[i].coincidences) << what << " cell " << i;
    EXPECT_EQ(a.cells[i].accidentals, b.cells[i].accidentals) << what << " cell " << i;
    EXPECT_EQ(a.cells[i].car, b.cells[i].car) << what << " cell " << i;
    EXPECT_EQ(a.cells[i].car_err, b.cells[i].car_err) << what << " cell " << i;
  }
}

/// A long table with an empty channel, so the zero-event sweep edge case is
/// exercised too.
EngineResult long_analysis_table() {
  auto specs = test_specs(3);
  ChannelPairSpec empty;
  empty.pair_rate_hz = 0;
  empty.linewidth_hz = 100e6;
  empty.detector_signal.dark_rate_hz = 0;
  empty.detector_idler.dark_rate_hz = 0;
  specs.push_back(empty);
  EngineConfig ec;
  ec.duration_s = 4.0;
  ec.seed = 77;
  return EventEngine(ec).run(specs);
}

TEST(InertAnalysisThreads, CarMatrixBitwiseInvariantAcrossThreadCounts) {
  const EngineResult res = long_analysis_table();
  const double window = 8e-9, spacing = 100e-9;
  const auto one = detect::car_matrix(res.signal, res.idler, window, spacing, 10,
                                      /*num_threads=*/1);
  for (const int threads : {2, 4}) {
    const auto many =
        detect::car_matrix(res.signal, res.idler, window, spacing, 10, threads);
    expect_car_matrices_equal(one, many,
                              threads == 2 ? "2 threads" : "4 threads");
  }
}

TEST(InertAnalysisThreads, CorrelateAllBitwiseInvariantAcrossThreadCounts) {
  const EngineResult res = long_analysis_table();
  const auto one = detect::correlate_all(res.signal, res.idler, 1e-9, 50e-9,
                                         /*num_threads=*/1);
  for (const int threads : {2, 4}) {
    const auto many = detect::correlate_all(res.signal, res.idler, 1e-9, 50e-9, threads);
    ASSERT_EQ(one.size(), many.size());
    for (std::size_t c = 0; c < one.size(); ++c)
      EXPECT_EQ(one[c].counts, many[c].counts) << "channel " << c << ", " << threads
                                               << " threads";
  }
}

TEST(InertAnalysisThreads, ThreadShimsAcceptAnyRequestAndReportOne) {
  // The analysis sweeps and linalg kernels are serial: the setters accept
  // any request and do nothing, the getters report 1.
  for (const unsigned n : {0u, 3u, 64u}) {
    detect::set_analysis_threads(n);
    linalg::set_backend_threads(n);
    EXPECT_EQ(detect::analysis_threads(), 1u);
    EXPECT_EQ(detect::analysis_thread_request(), 1u);
    EXPECT_EQ(linalg::backend_threads(), 1u);
    EXPECT_EQ(linalg::backend_thread_request(), 1u);
  }

  // Negative config counts are still rejected.
  EngineConfig bad;
  bad.analysis_threads = -1;
  EXPECT_THROW(EventEngine{bad}, std::invalid_argument);
  core::QkdNetworkConfig net = core::QkdNetworkConfig::uniform(2, 10.0);
  net.analysis_threads = -1;
  EXPECT_THROW(net.validate(/*num_channel_pairs=*/2), std::invalid_argument);
}

TEST(BatchedAnalysis, ValidationErrors) {
  const EventTable empty = EventTable::from_columns({{}});
  EXPECT_THROW(detect::car_matrix(empty, empty, 0.0, 1e-7), std::invalid_argument);
  EXPECT_THROW(detect::car_matrix(empty, empty, 1e-8, 1e-8), std::invalid_argument);
  EXPECT_THROW(detect::car_matrix(empty, empty, 1e-8, 1e-7, 0), std::invalid_argument);
  EXPECT_THROW(detect::correlate_all(empty, empty, 0.0, 1e-9), std::invalid_argument);
  const EventTable two = EventTable::from_columns({{}, {}});
  EXPECT_THROW(detect::correlate_all(empty, two, 1e-9, 1e-8), std::invalid_argument);
  const EventTable one = EventTable::from_columns({{1.0}});
  EXPECT_THROW(detect::car_matrix(one, one, 1e-8, 1e-7, 10, /*num_threads=*/-1),
               std::invalid_argument);
  EXPECT_THROW(detect::correlate_all(one, one, 1e-9, 1e-8, -2), std::invalid_argument);

  // Non-finite arguments: NaN passes every ordered comparison, ±inf breaks
  // the window grid and the scan reach.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(detect::car_matrix(one, one, nan, 1e-7), std::invalid_argument);
  EXPECT_THROW(detect::car_matrix(one, one, 1e-9, nan), std::invalid_argument);
  EXPECT_THROW(detect::car_matrix(one, one, 1e-9, inf), std::invalid_argument);
  EXPECT_THROW(detect::correlate_all(one, one, 1e-9, nan), std::invalid_argument);
  EXPECT_THROW(detect::correlate_all(one, one, nan, 1e-8), std::invalid_argument);
  EXPECT_THROW(detect::correlate_all(one, one, 1e-9, inf), std::invalid_argument);
}

// ------------------------------------------------- engine-backed core checks

TEST(CoreStreamChecks, QkdStreamCheckAccidentalFloor) {
  const auto comb = core::QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  const core::MultiplexedQkdLink link(exp);
  const auto checks = link.stream_check(/*distance_km=*/0.0, /*duration_s=*/0.2);
  ASSERT_EQ(checks.size(), 5u);
  for (const auto& c : checks) {
    EXPECT_GT(c.car.car, 2.0) << "k=" << c.k;
    EXPECT_GT(c.measured_coincidence_rate_hz, 0.0) << "k=" << c.k;
  }
  EXPECT_THROW(link.stream_check(-1.0, 1.0), std::invalid_argument);
}

}  // namespace
