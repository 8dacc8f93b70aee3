// Tests for the windowed streaming engine and its online accumulators:
// bitwise window-size and thread-count invariance across emission modes,
// anchored to the golden values of detect_golden.hpp; the diagonal
// accumulators fed inside the channel tasks against their serial push and
// the batch analyzers; boundary-violation accounting; bounded windows; and
// the streaming-backed core façades.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "detect_golden.hpp"
#include "qfc/core/comb_source.hpp"
#include "qfc/core/heralded.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/streaming.hpp"

namespace {

using namespace qfc;
using detect::ChannelPairSpec;
using detect::EngineConfig;
using detect::EngineResult;
using detect::EventEngine;
using detect::EventStreamer;
using detect::EventTable;
using detect::StreamConfig;
using detect::StreamWindow;

constexpr double kDuration = 0.5;

ChannelPairSpec base_spec(int k) {
  ChannelPairSpec s;
  s.pair_rate_hz = 20000.0 + 1500.0 * k;
  s.linewidth_hz = 110e6;
  s.transmission_signal = 0.8;
  s.transmission_idler = 0.75;
  s.background_rate_signal_hz = 1200.0;
  s.background_rate_idler_hz = 900.0;
  s.detector_signal.efficiency = 0.25;
  s.detector_signal.dark_rate_hz = 5e3;
  s.detector_signal.jitter_sigma_s = 120e-12;
  s.detector_signal.dead_time_s = 1e-6;
  s.detector_idler = s.detector_signal;
  s.detector_idler.efficiency = 0.2;
  return s;
}

std::vector<ChannelPairSpec> specs_for(detect::EmissionMode mode) {
  std::vector<ChannelPairSpec> specs;
  for (int k = 0; k < 3; ++k) {
    ChannelPairSpec s = base_spec(k);
    switch (mode) {
      case detect::EmissionMode::Cw:
        break;
      case detect::EmissionMode::Pulsed:
        s.emission = detect::EmissionMode::Pulsed;
        s.pair_rate_hz = 0;
        s.pulsed.repetition_rate_hz = 1e6;
        s.pulsed.mean_pairs_per_pulse = 0.02 + 0.005 * k;
        s.pulsed.pulse_sigma_s = 30e-12;
        s.pulsed.bin_separation_s = 400e-12;
        s.pulsed.late_fraction = 0.5;
        break;
      case detect::EmissionMode::PiecewiseRates:
        s.emission = detect::EmissionMode::PiecewiseRates;
        s.pair_rate_hz = 0;
        s.segments = {{0.2, 15000.0 + 1000.0 * k, 2000.0, 1000.0, 500.0, 250.0},
                      {0.2, 5000.0, 0.0, 0.0, 0.0, 0.0},
                      {0.2, 25000.0, 1000.0, 2000.0, 250.0, 500.0}};
        break;
    }
    // Channel 2 is deliberately empty: no pairs, no backgrounds, no darks.
    if (k == 2) {
      s.pair_rate_hz = 0;
      s.background_rate_signal_hz = 0;
      s.background_rate_idler_hz = 0;
      s.detector_signal.dark_rate_hz = 0;
      s.detector_idler.dark_rate_hz = 0;
      s.pulsed.mean_pairs_per_pulse = 0;
      for (auto& seg : s.segments) {
        seg.pair_rate_hz = 0;
        seg.background_rate_signal_hz = 0;
        seg.background_rate_idler_hz = 0;
        seg.dark_rate_signal_hz = 0;
        seg.dark_rate_idler_hz = 0;
      }
    }
    specs.push_back(s);
  }
  return specs;
}

EngineConfig engine_config(int num_threads = 2) {
  EngineConfig ec;
  ec.duration_s = kDuration;
  ec.seed = 20170327;
  ec.num_threads = num_threads;
  return ec;
}

/// Drain a streamer, concatenating the per-window columns per channel.
EngineResult drain(EventStreamer& s) {
  std::vector<std::vector<double>> sig, idl;
  StreamWindow w;
  while (s.next(w)) {
    const std::size_t n = w.events.signal.num_channels();
    if (sig.empty()) {
      sig.resize(n);
      idl.resize(n);
    }
    EXPECT_EQ(n, sig.size()) << "channel count changed mid-stream";
    for (std::size_t c = 0; c < n; ++c) {
      const auto col_s = w.events.signal.channel_clicks(c);
      const auto col_i = w.events.idler.channel_clicks(c);
      sig[c].insert(sig[c].end(), col_s.begin(), col_s.end());
      idl[c].insert(idl[c].end(), col_i.begin(), col_i.end());
    }
  }
  EngineResult r;
  r.signal = EventTable::from_columns(std::move(sig));
  r.idler = EventTable::from_columns(std::move(idl));
  return r;
}

void expect_car_equal(const detect::CarMatrix& a, const detect::CarMatrix& b) {
  ASSERT_EQ(a.num_signal, b.num_signal);
  ASSERT_EQ(a.num_idler, b.num_idler);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].coincidences, b.cells[i].coincidences) << "cell " << i;
    EXPECT_EQ(a.cells[i].accidentals, b.cells[i].accidentals) << "cell " << i;
    EXPECT_EQ(a.cells[i].car, b.cells[i].car) << "cell " << i;
    EXPECT_EQ(a.cells[i].car_err, b.cells[i].car_err) << "cell " << i;
  }
}

void expect_pairs_equal(const std::vector<detect::CarResult>& a,
                        const std::vector<detect::CarResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].coincidences, b[k].coincidences) << "pair " << k;
    EXPECT_EQ(a[k].accidentals, b[k].accidentals) << "pair " << k;
    EXPECT_EQ(a[k].car, b[k].car) << "pair " << k;
    EXPECT_EQ(a[k].car_err, b[k].car_err) << "pair " << k;
  }
}

/// `pairs` is the diagonal of `m`, bitwise.
void expect_car_diagonal(const std::vector<detect::CarResult>& pairs,
                         const detect::CarMatrix& m) {
  ASSERT_EQ(m.num_signal, m.num_idler);
  std::vector<detect::CarResult> diagonal;
  for (std::size_t k = 0; k < m.num_signal; ++k) diagonal.push_back(m.at(k, k));
  expect_pairs_equal(pairs, diagonal);
}

/// Window sizes exercised by the parity sweep: several windows, a window
/// not dividing the duration, a sub-millisecond window (thousands of
/// boundaries, far below any analysis reach of interest), and the
/// single-window degenerate case (window > duration). The CI sanitizer
/// legs add one more via QFC_STREAM_TEST_WINDOW_S.
std::vector<double> parity_windows() {
  std::vector<double> w{kDuration / 8.0, 0.137, 7e-4, 2.0 * kDuration};
  if (const char* env = std::getenv("QFC_STREAM_TEST_WINDOW_S")) {
    const double v = std::atof(env);
    if (v > 0) w.push_back(v);
  }
  return w;
}

constexpr double kCarWindow = 8e-9;
constexpr double kCarSpacing = 100e-9;
constexpr double kCorrBin = 1e-9;
constexpr double kCorrRange = 40e-9;

class StreamingParity
    : public ::testing::TestWithParam<detect::EmissionMode> {};

/// Stream `specs` in windows of `window_s` twice. The first pass folds the
/// diagonal CAR in-task (EventStreamer::next(w, pairs)), pushes the same
/// windows serially into the full matrix and a second diagonal
/// accumulator, and concatenates the per-channel columns; the second pass
/// folds the correlator in-task.
struct StreamedRun {
  EngineResult events;
  detect::CarMatrix car;
  std::vector<detect::CarResult> car_pairs;         ///< in-task
  std::vector<detect::CarResult> car_pairs_pushed;  ///< serial push(w)
  std::vector<detect::CoincidenceHistogram> hists;  ///< in-task
  std::uint64_t boundary_violations = 0;
};

StreamedRun stream_run(const EngineConfig& ec, const std::vector<ChannelPairSpec>& specs,
                       double window_s, double car_window, double car_spacing,
                       double corr_bin, double corr_range, double slack_override_s = 0) {
  StreamConfig sc;
  sc.window_s = window_s;
  sc.slack_override_s = slack_override_s;
  EventStreamer streamer(ec, sc, specs);
  detect::StreamingCarAccumulator car(car_window, car_spacing);
  detect::StreamingCarPairsAccumulator pairs(car_window, car_spacing);
  detect::StreamingCarPairsAccumulator pushed(car_window, car_spacing);
  std::vector<std::vector<double>> sig(specs.size()), idl(specs.size());
  StreamWindow w;
  while (streamer.next(w, pairs)) {
    car.push(w);
    pushed.push(w);
    for (std::size_t c = 0; c < specs.size(); ++c) {
      const auto col_s = w.events.signal.channel_clicks(c);
      const auto col_i = w.events.idler.channel_clicks(c);
      sig[c].insert(sig[c].end(), col_s.begin(), col_s.end());
      idl[c].insert(idl[c].end(), col_i.begin(), col_i.end());
    }
  }
  StreamedRun r;
  // Boundary violations can leave the concatenated columns unsorted.
  if (slack_override_s <= 0) {
    r.events.signal = EventTable::from_columns(std::move(sig));
    r.events.idler = EventTable::from_columns(std::move(idl));
  }
  r.car = car.finish();
  r.car_pairs = pairs.finish();
  r.car_pairs_pushed = pushed.finish();
  r.boundary_violations = streamer.boundary_violations();

  EventStreamer again(ec, sc, specs);
  detect::StreamingCorrelatorAccumulator corr(corr_bin, corr_range);
  while (again.next(w, corr)) {
  }
  r.hists = corr.finish();
  return r;
}

void expect_hists_equal(const std::vector<detect::CoincidenceHistogram>& a,
                        const std::vector<detect::CoincidenceHistogram>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].counts, b[c].counts) << "channel " << c;
    EXPECT_EQ(a[c].bin_width_s, b[c].bin_width_s) << "channel " << c;
    EXPECT_EQ(a[c].range_s, b[c].range_s) << "channel " << c;
  }
}

TEST_P(StreamingParity, BitwiseInvariantAcrossWindowSizes) {
  const detect::EmissionMode mode = GetParam();
  // Reference: the whole run as one window (EventEngine::run + the
  // whole-table analyzers) on specs with an empty channel.
  const auto specs = specs_for(mode);
  const EngineConfig ec = engine_config();
  const EngineResult one = EventEngine(ec).run(specs);
  const auto one_car = detect::car_matrix(one.signal, one.idler, kCarWindow, kCarSpacing);
  const auto one_hists = detect::correlate_all(one.signal, one.idler, kCorrBin, kCorrRange);

  for (double window_s : parity_windows()) {
    SCOPED_TRACE("window_s = " + std::to_string(window_s));
    const StreamedRun r =
        stream_run(ec, specs, window_s, kCarWindow, kCarSpacing, kCorrBin, kCorrRange);
    EXPECT_EQ(r.boundary_violations, 0u);
    EXPECT_EQ(r.events.signal, one.signal);
    EXPECT_EQ(r.events.idler, one.idler);
    expect_car_equal(r.car, one_car);
    expect_car_diagonal(r.car_pairs, one_car);
    expect_pairs_equal(r.car_pairs, r.car_pairs_pushed);
    expect_hists_equal(r.hists, one_hists);

    // The same windows reproduce the recorded values.
    const StreamedRun g = stream_run(golden::engine_config(), golden::specs(mode), window_s,
                                     golden::kCarWindow, golden::kCarSpacing,
                                     golden::kCorrBin, golden::kCorrRange);
    EXPECT_EQ(g.boundary_violations, 0u);
    golden::expect_events(g.events, mode);
    golden::expect_car(g.car, mode);
    golden::expect_car_pairs(g.car_pairs, mode);
    golden::expect_histograms(g.hists, mode);
  }
}

TEST_P(StreamingParity, InTaskDiagonalInvariantAcrossEngineThreads) {
  // The diagonal accumulators run inside the channel tasks: every engine
  // thread count must give the batch diagonal, bitwise, at every window.
  const detect::EmissionMode mode = GetParam();
  const auto specs = specs_for(mode);
  const EngineResult one = EventEngine(engine_config(1)).run(specs);
  const auto one_car = detect::car_matrix(one.signal, one.idler, kCarWindow, kCarSpacing);
  const auto one_hists = detect::correlate_all(one.signal, one.idler, kCorrBin, kCorrRange);
  for (const int threads : {1, 4}) {
    for (const double window_s : parity_windows()) {
      SCOPED_TRACE("threads = " + std::to_string(threads) +
                   ", window_s = " + std::to_string(window_s));
      const StreamedRun r = stream_run(engine_config(threads), specs, window_s, kCarWindow,
                                       kCarSpacing, kCorrBin, kCorrRange);
      expect_car_diagonal(r.car_pairs, one_car);
      expect_pairs_equal(r.car_pairs, r.car_pairs_pushed);
      expect_hists_equal(r.hists, one_hists);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEmissionModes, StreamingParity,
                         ::testing::Values(detect::EmissionMode::Cw,
                                           detect::EmissionMode::Pulsed,
                                           detect::EmissionMode::PiecewiseRates));

TEST(EventStreamer, BitwiseInvariantAcrossGenerationThreadCounts) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  StreamConfig sc;
  sc.window_s = 0.05;
  EventStreamer s1(engine_config(1), sc, specs);
  EventStreamer s3(engine_config(3), sc, specs);
  const EngineResult r1 = drain(s1);
  const EngineResult r3 = drain(s3);
  EXPECT_EQ(r1.signal, r3.signal);
  EXPECT_EQ(r1.idler, r3.idler);
}

TEST(EventStreamer, WindowMetadataAndScheduling) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  StreamConfig sc;
  sc.window_s = 0.2;
  EventStreamer s(engine_config(), sc, specs);
  const std::size_t num_windows = 3;  // ceil(0.5 / 0.2)
  StreamWindow w;
  std::size_t k = 0;
  while (s.next(w)) {
    EXPECT_EQ(w.index, k);
    EXPECT_DOUBLE_EQ(w.t_begin_s, 0.2 * static_cast<double>(k));
    EXPECT_EQ(w.last, k + 1 == num_windows);
    EXPECT_EQ(w.t_end_s, w.last ? kDuration : 0.2 * static_cast<double>(k + 1));
    for (std::size_t c = 0; c < specs.size(); ++c) {
      for (double t : w.events.signal.channel_clicks(c)) {
        EXPECT_GE(t, w.t_begin_s);
        EXPECT_LT(t, w.t_end_s);
      }
    }
    ++k;
  }
  EXPECT_EQ(k, num_windows);
  EXPECT_FALSE(s.next(w));
}

TEST(EventStreamer, RejectsBadConfigsLikeBatch) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  EngineConfig ec = engine_config();
  StreamConfig sc;
  sc.window_s = 0;
  EXPECT_THROW(EventStreamer(ec, sc, specs), std::invalid_argument);
  sc.window_s = 0.1;
  ec.duration_s = -1;
  EXPECT_THROW(EventStreamer(ec, sc, specs), std::invalid_argument);
  ec = engine_config();
  auto bad = specs;
  bad[0].pair_rate_hz = -5;
  EXPECT_THROW(EventStreamer(ec, sc, bad), std::invalid_argument);

  // NaN and ±inf fail every generation-parameter check. Only construct:
  // an infinite rate would never let a Poisson clock advance.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double d : {nan, inf}) {
    ec.duration_s = d;
    EXPECT_THROW(EventStreamer(ec, sc, specs), std::invalid_argument) << d;
    EXPECT_THROW((void)EventEngine(ec), std::invalid_argument) << d;
  }
  ec = engine_config();
  sc.window_s = 1e-300;  // more windows than a count can hold
  EXPECT_THROW(EventStreamer(ec, sc, specs), std::invalid_argument);
  sc.window_s = 0.1;
  using detect::DetectorParams;
  using detect::PulsedEmission;
  using detect::RateSegment;
  for (const double v : {nan, inf, -inf}) {
    SCOPED_TRACE("value = " + std::to_string(v));
    for (double ChannelPairSpec::*field :
         {&ChannelPairSpec::pair_rate_hz, &ChannelPairSpec::linewidth_hz,
          &ChannelPairSpec::transmission_signal, &ChannelPairSpec::transmission_idler,
          &ChannelPairSpec::background_rate_signal_hz,
          &ChannelPairSpec::background_rate_idler_hz}) {
      auto bad_spec = specs;
      bad_spec[1].*field = v;
      EXPECT_THROW(EventStreamer(ec, sc, bad_spec), std::invalid_argument);
    }
    for (DetectorParams ChannelPairSpec::*arm :
         {&ChannelPairSpec::detector_signal, &ChannelPairSpec::detector_idler}) {
      for (double DetectorParams::*field :
           {&DetectorParams::efficiency, &DetectorParams::dark_rate_hz,
            &DetectorParams::jitter_sigma_s, &DetectorParams::dead_time_s}) {
        auto bad_spec = specs;
        bad_spec[1].*arm.*field = v;
        EXPECT_THROW(EventStreamer(ec, sc, bad_spec), std::invalid_argument);
      }
    }
    for (double PulsedEmission::*field :
         {&PulsedEmission::repetition_rate_hz, &PulsedEmission::mean_pairs_per_pulse,
          &PulsedEmission::pulse_sigma_s, &PulsedEmission::bin_separation_s,
          &PulsedEmission::late_fraction}) {
      auto bad_spec = specs_for(detect::EmissionMode::Pulsed);
      bad_spec[0].pulsed.*field = v;
      EXPECT_THROW(EventStreamer(ec, sc, bad_spec), std::invalid_argument);
    }
    for (double RateSegment::*field :
         {&RateSegment::duration_s, &RateSegment::pair_rate_hz,
          &RateSegment::background_rate_signal_hz, &RateSegment::background_rate_idler_hz,
          &RateSegment::dark_rate_signal_hz, &RateSegment::dark_rate_idler_hz}) {
      auto bad_spec = specs_for(detect::EmissionMode::PiecewiseRates);
      bad_spec[0].segments[1].*field = v;
      EXPECT_THROW(EventStreamer(ec, sc, bad_spec), std::invalid_argument);
    }
  }
}

TEST(EventStreamer, TinySlackForcesCountedBoundaryViolations) {
  // A pathological configuration — huge detector jitter, narrow linewidth,
  // and the look-ahead slack overridden to 1 ps — guarantees clicks and
  // arrivals materialize behind already-emitted boundaries. The streamer
  // must count them and still complete with valid (sorted) windows.
  std::vector<ChannelPairSpec> specs(2);
  specs[0].pair_rate_hz = 50000;
  specs[0].linewidth_hz = 1e3;  // Laplace delay scale ~160 us
  specs[0].detector_signal.efficiency = 0.9;
  specs[0].detector_signal.dark_rate_hz = 100;
  specs[0].detector_signal.jitter_sigma_s = 5e-3;
  specs[0].detector_signal.dead_time_s = 0;
  specs[0].detector_idler = specs[0].detector_signal;
  specs[1] = specs[0];
  specs[1].pair_rate_hz = 30000;

  StreamConfig sc;
  sc.window_s = 0.05;
  sc.slack_override_s = 1e-12;
  EventStreamer s(engine_config(1), sc, specs);
  StreamWindow w;
  std::size_t total = 0;
  while (s.next(w)) {
    total += w.events.signal.size() + w.events.idler.size();
    for (std::size_t c = 0; c < specs.size(); ++c) {
      const double* b = w.events.signal.channel_begin(c);
      EXPECT_TRUE(std::is_sorted(b, w.events.signal.channel_end(c)));
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(s.boundary_violations(), 0u);

  // The in-task diagonal sweep repairs the out-of-order windows
  // (append_sorted in its per-channel step) as the serial push and the
  // full matrix do: all three sort the same events, so the cells agree, at
  // every engine thread count.
  std::vector<detect::CarResult> first;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    const StreamedRun r = stream_run(engine_config(threads), specs, sc.window_s, kCarWindow,
                                     kCarSpacing, kCorrBin, kCorrRange, sc.slack_override_s);
    EXPECT_EQ(r.boundary_violations, s.boundary_violations());
    expect_car_diagonal(r.car_pairs, r.car);
    expect_pairs_equal(r.car_pairs, r.car_pairs_pushed);
    if (first.empty()) first = r.car_pairs;
    expect_pairs_equal(r.car_pairs, first);
  }
}

TEST(EventStreamer, RejectedDiagonalLeavesTheStreamerUsable) {
  // A diagonal accumulator that cannot take the window makes next() throw
  // before any generation: the streamer does not advance and its pool runs
  // the following windows as if nothing had happened.
  const auto specs = specs_for(detect::EmissionMode::Cw);
  const EngineResult one = EventEngine(engine_config(4)).run(specs);
  const auto one_car = detect::car_matrix(one.signal, one.idler, kCarWindow, kCarSpacing);
  StreamConfig sc;
  sc.window_s = 0.1;
  EventStreamer s(engine_config(4), sc, specs);
  StreamWindow w;

  detect::StreamingCarPairsAccumulator finished(kCarWindow, kCarSpacing);
  (void)finished.finish();
  EXPECT_THROW((void)s.next(w, finished), std::logic_error);
  detect::StreamingCorrelatorAccumulator done(kCorrBin, kCorrRange);
  (void)done.finish();
  EXPECT_THROW((void)s.next(w, done), std::logic_error);
  detect::StreamingCarPairsAccumulator other(kCarWindow, kCarSpacing);
  other.push(w);  // an empty window: zero channels
  EXPECT_THROW((void)s.next(w, other), std::invalid_argument);

  detect::StreamingCarPairsAccumulator pairs(kCarWindow, kCarSpacing);
  std::size_t windows = 0;
  while (s.next(w, pairs)) {
    EXPECT_EQ(w.index, windows);
    ++windows;
  }
  EXPECT_EQ(windows, 5u);
  expect_car_diagonal(pairs.finish(), one_car);
}

TEST(StreamingFacades, QkdStreamCheckWindowSizeInvariant) {
  const auto comb = core::QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  const core::MultiplexedQkdLink link(exp);
  const double duration = 0.2;
  core::StreamOptions batch_opts;
  batch_opts.window_s = 0;  // one window spanning the run
  const auto batch = link.stream_check(/*distance_km=*/0.0, duration, batch_opts);
  core::StreamOptions windowed_opts;
  windowed_opts.window_s = duration / 6.0;
  const auto streamed =
      link.stream_check(/*distance_km=*/0.0, duration, windowed_opts);
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].k, batch[i].k);
    EXPECT_EQ(streamed[i].car.coincidences, batch[i].car.coincidences);
    EXPECT_EQ(streamed[i].car.accidentals, batch[i].car.accidentals);
    EXPECT_EQ(streamed[i].car.car, batch[i].car.car);
    EXPECT_EQ(streamed[i].car.car_err, batch[i].car.car_err);
    EXPECT_EQ(streamed[i].measured_coincidence_rate_hz,
              batch[i].measured_coincidence_rate_hz);
    EXPECT_EQ(streamed[i].measured_accidental_rate_hz,
              batch[i].measured_accidental_rate_hz);
  }
  EXPECT_THROW(link.stream_check(-1.0, 1.0), std::invalid_argument);
}

TEST(StreamingFacades, ChannelTableInvariantToTheDerivedWindow) {
  // run_channel_table streams in windows of bounded_window_s. A short run
  // fits in one window and a long run at the same rates takes several;
  // both must equal the whole-run table analysis of the same specs.
  const auto comb = core::QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::SelfLockedCw);
  core::HeraldedConfig cfg;
  cfg.num_channel_pairs = 3;
  cfg.engine_threads = 2;
  std::vector<ChannelPairSpec> specs;
  {
    const auto exp = comb.heralded(cfg);
    for (int k = 1; k <= cfg.num_channel_pairs; ++k) {
      ChannelPairSpec spec;
      spec.pair_rate_hz = exp.source().pair_rate_hz(k);
      spec.linewidth_hz = exp.source().photon_linewidth_hz();
      spec.transmission_signal = cfg.channels.chain(k, 0).transmission;
      spec.transmission_idler = cfg.channels.chain(k, 1).transmission;
      spec.detector_signal = cfg.channels.chain(k, 0).detector;
      spec.detector_idler = cfg.channels.chain(k, 1).detector;
      specs.push_back(spec);
    }
  }
  const double window = detect::bounded_window_s(specs, 1e9);
  for (const double duration : {window / 4.0, 2.5 * window}) {
    SCOPED_TRACE("duration_s = " + std::to_string(duration));
    cfg.duration_s = duration;
    auto exp = comb.heralded(cfg);
    const auto table = exp.run_channel_table();

    EngineConfig ec;
    ec.duration_s = duration;
    ec.seed = cfg.seed + 2;
    const EngineResult events = EventEngine(ec).run(specs);
    const auto matrix = detect::car_matrix(events.signal, events.idler,
                                           cfg.coincidence_window_s, cfg.side_window_spacing_s);
    ASSERT_EQ(table.size(), specs.size());
    for (std::size_t c = 0; c < specs.size(); ++c) {
      const detect::CarResult& want = matrix.at(c, c);
      EXPECT_EQ(table[c].car, want.car) << "channel " << c;
      EXPECT_EQ(table[c].car_err, want.car_err) << "channel " << c;
      EXPECT_EQ(table[c].coincidence_rate_hz,
                std::max(0.0, want.coincidences - want.accidentals) / duration);
      EXPECT_EQ(table[c].singles_signal_hz,
                static_cast<double>(events.signal.channel_size(c)) / duration);
      EXPECT_EQ(table[c].singles_idler_hz,
                static_cast<double>(events.idler.channel_size(c)) / duration);
    }
    EXPECT_EQ(detect::bounded_window_s(specs, duration) < duration, duration > window);
  }
}

TEST(BoundedWindow, CountsPiecewiseSegmentBackgroundsAndDarks) {
  // A PiecewiseRates spec whose whole load is segment darks and segment
  // backgrounds: 4e5 dark clicks/s on average per arm, and 1e6 background
  // photons/s at efficiency 0.5. A window of 10^5 clicks is far below the
  // 10 s run.
  ChannelPairSpec s;
  s.emission = detect::EmissionMode::PiecewiseRates;
  s.linewidth_hz = 110e6;
  s.detector_signal.efficiency = 0.5;
  s.detector_signal.dark_rate_hz = 0;
  s.detector_idler = s.detector_signal;
  s.segments = {{5.0, 0.0, 0.0, 0.0, 8e5, 8e5}, {5.0, 0.0, 0.0, 0.0, 0.0, 0.0}};
  const double duration = 10.0;
  const double darks_only = detect::bounded_window_s({s}, duration);
  EXPECT_LT(darks_only, duration);
  EXPECT_DOUBLE_EQ(darks_only, 1e5 / 8e5);
  s.segments[1].background_rate_signal_hz = 2e6;
  s.segments[1].background_rate_idler_hz = 2e6;
  EXPECT_DOUBLE_EQ(detect::bounded_window_s({s}, duration), 1e5 / (8e5 + 1e6));
  // The segments of a spec in another mode are never drawn.
  s.emission = detect::EmissionMode::Cw;
  EXPECT_EQ(detect::bounded_window_s({s}, duration), duration);
}

TEST(StreamingAccumulators, RejectMisuse) {
  detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, 10, 1);
  (void)car.finish();
  detect::StreamingCarAccumulator car2(kCarWindow, kCarSpacing, 10, 1);
  (void)car2.finish();
  EXPECT_THROW((void)car2.finish(), std::logic_error);
  EXPECT_THROW(detect::StreamingCarAccumulator(0, kCarSpacing, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarAccumulator(kCarWindow, kCarWindow / 2, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingCorrelatorAccumulator(0, 1e-9, 1),
               std::invalid_argument);

  // Non-finite windows, spacings, bin widths and ranges are rejected by
  // every accumulator.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(detect::StreamingCarAccumulator(nan, 1e-7), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarAccumulator(1e-9, nan), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarAccumulator(1e-9, inf), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarAccumulator(inf, 1e-7), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarPairsAccumulator(nan, 1e-7), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarPairsAccumulator(1e-9, nan), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarPairsAccumulator(1e-9, inf), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarPairsAccumulator(-inf, 1e-7), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCorrelatorAccumulator(1e-9, nan), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCorrelatorAccumulator(1e-9, inf), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCorrelatorAccumulator(nan, 1e-8), std::invalid_argument);

  // The diagonal accumulator: bad grids as the full matrix, misuse after
  // finish, and windows whose signal and idler channel counts differ.
  EXPECT_THROW(detect::StreamingCarPairsAccumulator(0, kCarSpacing, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarPairsAccumulator(kCarWindow, kCarWindow / 2, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarPairsAccumulator(kCarWindow, kCarSpacing, 0, 1),
               std::invalid_argument);
  StreamWindow w;
  w.events.signal = EventTable::from_columns({{1e-3}, {2e-3}});
  w.events.idler = EventTable::from_columns({{1e-3}, {2e-3}});
  w.t_end_s = 0.1;
  w.last = true;
  detect::StreamingCarPairsAccumulator pairs(kCarWindow, kCarSpacing, 10, 1);
  pairs.push(w);
  const auto cells = pairs.finish();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].coincidences, 1.0);
  EXPECT_THROW(pairs.push(w), std::logic_error);
  EXPECT_THROW((void)pairs.finish(), std::logic_error);
  detect::StreamingCarPairsAccumulator empty(kCarWindow, kCarSpacing, 10, 1);
  EXPECT_TRUE(empty.finish().empty());
  StreamWindow mismatched = w;
  mismatched.events.idler = EventTable::from_columns({{1e-3}, {2e-3}, {3e-3}});
  detect::StreamingCarPairsAccumulator pairs_mm(kCarWindow, kCarSpacing, 10, 1);
  EXPECT_THROW(pairs_mm.push(mismatched), std::invalid_argument);
}

}  // namespace
