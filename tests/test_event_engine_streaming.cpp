// Tests for the windowed streaming engine and its online accumulators:
// bitwise window-size and thread-count invariance across emission modes,
// anchored to the golden values of detect_golden.hpp; snapshot/restore;
// boundary-violation accounting; and the streaming-backed core façades.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "detect_golden.hpp"
#include "qfc/core/comb_source.hpp"
#include "qfc/core/heralded.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/core/stability.hpp"
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

/// `pairs` is the diagonal of `m`, bitwise.
void expect_car_diagonal(const std::vector<detect::CarResult>& pairs,
                         const detect::CarMatrix& m) {
  ASSERT_EQ(m.num_signal, m.num_idler);
  ASSERT_EQ(pairs.size(), m.num_signal);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const detect::CarResult& want = m.at(k, k);
    EXPECT_EQ(pairs[k].coincidences, want.coincidences) << "pair " << k;
    EXPECT_EQ(pairs[k].accidentals, want.accidentals) << "pair " << k;
    EXPECT_EQ(pairs[k].car, want.car) << "pair " << k;
    EXPECT_EQ(pairs[k].car_err, want.car_err) << "pair " << k;
  }
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
constexpr double kCountOffset = 50e-9;
constexpr double kCorrBin = 1e-9;
constexpr double kCorrRange = 40e-9;

class StreamingParity
    : public ::testing::TestWithParam<detect::EmissionMode> {};

/// Stream `specs` in windows of `window_s`, folding every window into the
/// four accumulators and concatenating the per-channel columns.
struct StreamedRun {
  EngineResult events;
  detect::CarMatrix car;
  std::vector<detect::CarResult> car_pairs;
  std::vector<std::uint64_t> counts;
  std::vector<detect::CoincidenceHistogram> hists;
  std::uint64_t boundary_violations = 0;
};

StreamedRun stream_run(const EngineConfig& ec, const std::vector<ChannelPairSpec>& specs,
                       double window_s, double car_window, double car_spacing,
                       double count_window, double count_offset, double corr_bin,
                       double corr_range) {
  StreamConfig sc;
  sc.window_s = window_s;
  EventStreamer streamer(ec, sc, specs);
  detect::StreamingCarAccumulator car(car_window, car_spacing);
  detect::StreamingCarPairsAccumulator pairs(car_window, car_spacing);
  detect::StreamingCountMatrixAccumulator cm(count_window, count_offset);
  detect::StreamingCorrelatorAccumulator corr(corr_bin, corr_range);
  std::vector<std::vector<double>> sig(specs.size()), idl(specs.size());
  StreamWindow w;
  while (streamer.next(w)) {
    car.push(w);
    pairs.push(w);
    cm.push(w);
    corr.push(w);
    for (std::size_t c = 0; c < specs.size(); ++c) {
      const auto col_s = w.events.signal.channel_clicks(c);
      const auto col_i = w.events.idler.channel_clicks(c);
      sig[c].insert(sig[c].end(), col_s.begin(), col_s.end());
      idl[c].insert(idl[c].end(), col_i.begin(), col_i.end());
    }
  }
  StreamedRun r;
  r.events.signal = EventTable::from_columns(std::move(sig));
  r.events.idler = EventTable::from_columns(std::move(idl));
  r.car = car.finish();
  r.car_pairs = pairs.finish();
  r.counts = cm.finish();
  r.hists = corr.finish();
  r.boundary_violations = streamer.boundary_violations();
  return r;
}

TEST_P(StreamingParity, BitwiseInvariantAcrossWindowSizes) {
  const detect::EmissionMode mode = GetParam();
  // Reference: the whole run as one window (EventEngine::run + the
  // whole-table analyzers) on specs with an empty channel.
  const auto specs = specs_for(mode);
  const EngineConfig ec = engine_config();
  const EngineResult one = EventEngine(ec).run(specs);
  const auto one_car = detect::car_matrix(one.signal, one.idler, kCarWindow, kCarSpacing);
  const auto one_counts =
      detect::coincidence_count_matrix(one.signal, one.idler, kCarWindow, kCountOffset);
  const auto one_hists = detect::correlate_all(one.signal, one.idler, kCorrBin, kCorrRange);

  for (double window_s : parity_windows()) {
    SCOPED_TRACE("window_s = " + std::to_string(window_s));
    const StreamedRun r = stream_run(ec, specs, window_s, kCarWindow, kCarSpacing, kCarWindow,
                                     kCountOffset, kCorrBin, kCorrRange);
    EXPECT_EQ(r.boundary_violations, 0u);
    EXPECT_EQ(r.events.signal, one.signal);
    EXPECT_EQ(r.events.idler, one.idler);
    expect_car_equal(r.car, one_car);
    expect_car_diagonal(r.car_pairs, one_car);
    EXPECT_EQ(r.counts, one_counts);
    ASSERT_EQ(r.hists.size(), one_hists.size());
    for (std::size_t c = 0; c < r.hists.size(); ++c)
      EXPECT_EQ(r.hists[c].counts, one_hists[c].counts) << "channel " << c;

    // The same windows reproduce the recorded values.
    const StreamedRun g = stream_run(golden::engine_config(), golden::specs(mode), window_s,
                                     golden::kCarWindow, golden::kCarSpacing,
                                     golden::kCountWindow, golden::kCountOffset,
                                     golden::kCorrBin, golden::kCorrRange);
    EXPECT_EQ(g.boundary_violations, 0u);
    golden::expect_events(g.events, mode);
    golden::expect_car(g.car, mode);
    golden::expect_car_pairs(g.car_pairs, mode);
    golden::expect_count_matrix(g.counts, mode);
    golden::expect_histograms(g.hists, mode);
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
  EXPECT_EQ(s.num_windows(), 3u);  // 0.5 / 0.2
  StreamWindow w;
  std::size_t k = 0;
  while (s.next(w)) {
    EXPECT_EQ(w.index, k);
    EXPECT_DOUBLE_EQ(w.t_begin_s, 0.2 * static_cast<double>(k));
    EXPECT_EQ(w.last, k + 1 == s.num_windows());
    EXPECT_EQ(w.t_end_s, w.last ? kDuration : 0.2 * static_cast<double>(k + 1));
    for (std::size_t c = 0; c < specs.size(); ++c) {
      for (double t : w.events.signal.channel_clicks(c)) {
        EXPECT_GE(t, w.t_begin_s);
        EXPECT_LT(t, w.t_end_s);
      }
    }
    ++k;
  }
  EXPECT_EQ(k, 3u);
  EXPECT_TRUE(s.done());
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

/// One of each streaming accumulator, pushed, snapshotted and restored as
/// a set; `allan` watches channel pair 0.
struct AccumulatorSet {
  detect::StreamingCarAccumulator car{kCarWindow, kCarSpacing, 10, 2};
  detect::StreamingCarPairsAccumulator pairs{kCarWindow, kCarSpacing, 10, 2};
  detect::StreamingCountMatrixAccumulator counts{kCarWindow, kCountOffset};
  detect::StreamingCorrelatorAccumulator corr{kCorrBin, kCorrRange};
  detect::StreamingAllanAccumulator allan{40e-9, 0.05, 0, 0};

  void push(const StreamWindow& w) {
    car.push(w);
    pairs.push(w);
    counts.push(w);
    corr.push(w);
    allan.push(w);
  }
  std::vector<std::vector<std::uint8_t>> snapshot() const {
    return {car.snapshot(), pairs.snapshot(), counts.snapshot(), corr.snapshot(),
            allan.snapshot()};
  }
  void restore(const std::vector<std::vector<std::uint8_t>>& blobs) {
    car.restore(blobs.at(0));
    pairs.restore(blobs.at(1));
    counts.restore(blobs.at(2));
    corr.restore(blobs.at(3));
    allan.restore(blobs.at(4));
  }
};

/// Every finish() of `a` equals the matching finish() of `b`, bitwise.
void expect_same_finish(AccumulatorSet& a, AccumulatorSet& b) {
  const detect::CarMatrix car = a.car.finish();
  expect_car_equal(b.car.finish(), car);
  expect_car_diagonal(a.pairs.finish(), car);
  expect_car_diagonal(b.pairs.finish(), car);
  EXPECT_EQ(a.counts.finish(), b.counts.finish());
  const auto ha = a.corr.finish();
  const auto hb = b.corr.finish();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t c = 0; c < ha.size(); ++c)
    EXPECT_EQ(ha[c].counts, hb[c].counts) << "channel " << c;
  const detect::StreamingAllanResult aa = a.allan.finish();
  const detect::StreamingAllanResult ab = b.allan.finish();
  EXPECT_EQ(aa.counts, ab.counts);
  EXPECT_EQ(aa.mean_counts, ab.mean_counts);
  ASSERT_EQ(aa.allan.size(), ab.allan.size());
  for (std::size_t i = 0; i < aa.allan.size(); ++i) {
    EXPECT_EQ(aa.allan[i].tau_s, ab.allan[i].tau_s);
    EXPECT_EQ(aa.allan[i].sigma, ab.allan[i].sigma);
    EXPECT_EQ(aa.allan[i].pairs, ab.allan[i].pairs);
  }
}

class EventStreamerModes : public ::testing::TestWithParam<detect::EmissionMode> {};

TEST_P(EventStreamerModes, SnapshotRestoreContinuesBitwise) {
  const auto specs = specs_for(GetParam());
  StreamConfig sc;
  sc.window_s = 0.07;
  EventStreamer original(engine_config(), sc, specs);
  AccumulatorSet acc_orig;

  StreamWindow w;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(original.next(w));
    acc_orig.push(w);
  }
  const auto streamer_blob = original.snapshot();
  const auto acc_blobs = acc_orig.snapshot();
  // A full-matrix blob is not a diagonal one, nor the other way round.
  detect::StreamingCarPairsAccumulator pairs_wrong(kCarWindow, kCarSpacing, 10, 2);
  EXPECT_THROW(pairs_wrong.restore(acc_blobs[0]), std::invalid_argument);
  detect::StreamingCarAccumulator car_wrong(kCarWindow, kCarSpacing, 10, 2);
  EXPECT_THROW(car_wrong.restore(acc_blobs[1]), std::invalid_argument);

  EventStreamer restored = EventStreamer::restore(streamer_blob);
  EXPECT_EQ(restored.next_window(), original.next_window());
  EXPECT_EQ(restored.num_windows(), original.num_windows());
  EXPECT_EQ(restored.snapshot(), streamer_blob);
  AccumulatorSet acc_rest;
  acc_rest.restore(acc_blobs);
  EXPECT_EQ(acc_rest.snapshot(), acc_blobs);

  StreamWindow wo, wr;
  while (original.next(wo)) {
    ASSERT_TRUE(restored.next(wr));
    EXPECT_EQ(wr.index, wo.index);
    EXPECT_EQ(wr.events.signal, wo.events.signal);
    EXPECT_EQ(wr.events.idler, wo.events.idler);
    acc_orig.push(wo);
    acc_rest.push(wr);
  }
  EXPECT_FALSE(restored.next(wr));
  EXPECT_EQ(restored.boundary_violations(), original.boundary_violations());
  expect_same_finish(acc_orig, acc_rest);
}

INSTANTIATE_TEST_SUITE_P(AllEmissionModes, EventStreamerModes,
                         ::testing::Values(detect::EmissionMode::Cw,
                                           detect::EmissionMode::Pulsed,
                                           detect::EmissionMode::PiecewiseRates));

/// The u64 at byte `offset` of a blob.
std::uint64_t read_u64(const std::vector<std::uint8_t>& blob, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, blob.data() + offset, sizeof v);
  return v;
}

/// `blob` with the u64 at byte `offset` replaced by `value`.
std::vector<std::uint8_t> patch_u64(std::vector<std::uint8_t> blob, std::size_t offset,
                                    std::uint64_t value) {
  std::memcpy(blob.data() + offset, &value, sizeof value);
  return blob;
}

/// FNV-1a-64 of a blob.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(EventStreamer, SnapshotBlobFormatIsPinned) {
  // Blobs are host-endian; the recorded bytes are little-endian.
  if constexpr (std::endian::native != std::endian::little)
    GTEST_SKIP() << "snapshot blobs are host-endian";

  // Streamer: one channel pair per emission mode, every field distinct and
  // every rate zero, snapshotted after one window. Nothing is sampled, so
  // the blob holds no libm-derived value and pins the same bytes on every
  // little-endian host, while the forked RNG streams, the finished
  // samplers, the piecewise segment counters and the watermarks are all
  // non-trivial.
  std::vector<ChannelPairSpec> specs(3);
  for (std::size_t c = 0; c < specs.size(); ++c) {
    ChannelPairSpec& s = specs[c];
    const double k = static_cast<double>(c + 1);
    s.linewidth_hz = 100e6 * k;
    s.transmission_signal = 0.5 + 0.1 * k;
    s.transmission_idler = 0.25 + 0.1 * k;
    s.detector_signal = {0.2 * k, 0.0, 50e-12 * k, 1e-6 * k};
    s.detector_idler = {0.1 * k, 0.0, 70e-12 * k, 2e-6 * k};
  }
  specs[1].emission = detect::EmissionMode::Pulsed;
  specs[1].pulsed = {1e6, 0.0, 20e-12, 300e-12, 0.375};
  specs[2].emission = detect::EmissionMode::PiecewiseRates;
  specs[2].segments = {{0.125, 0, 0, 0, 0, 0}, {0.5, 0, 0, 0, 0, 0}};
  EngineConfig ec = engine_config(2);
  StreamConfig sc;
  sc.window_s = 0.2;
  EventStreamer streamer(ec, sc, specs);
  StreamWindow w;
  ASSERT_TRUE(streamer.next(w));

  // Accumulators: two hand-made windows of exactly given click times over
  // two channel pairs, so each blob has resolved counts and carried events.
  const auto window = [](std::size_t index, double t_end,
                         std::vector<std::vector<double>> sig,
                         std::vector<std::vector<double>> idl) {
    StreamWindow out;
    out.index = index;
    out.t_end_s = t_end;
    out.events.signal = EventTable::from_columns(std::move(sig));
    out.events.idler = EventTable::from_columns(std::move(idl));
    return out;
  };
  const StreamWindow w0 = window(0, 1e-6, {{100e-9, 300e-9, 900e-9}, {150e-9, 950e-9}},
                                 {{102e-9, 420e-9, 905e-9}, {149e-9, 700e-9}});
  const StreamWindow w1 = window(1, 2e-6, {{1.1e-6, 1.9e-6}, {1.5e-6, 1.95e-6}},
                                 {{1.103e-6, 1.6e-6, 1.899e-6}, {1.52e-6, 1.99e-6}});
  detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, 10, 1);
  detect::StreamingCarPairsAccumulator pairs(kCarWindow, kCarSpacing, 10, 1);
  detect::StreamingCountMatrixAccumulator counts(100e-9, 400e-9);
  detect::StreamingCorrelatorAccumulator corr(1e-9, 20e-9);
  detect::StreamingAllanAccumulator allan(4e-9, 0.75e-6, 0, 1);
  for (const StreamWindow* win : {&w0, &w1}) {
    car.push(*win);
    pairs.push(*win);
    counts.push(*win);
    corr.push(*win);
    allan.push(*win);
  }

  struct Pin {
    const char* kind;
    std::vector<std::uint8_t> blob;
    std::size_t size;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"streamer", streamer.snapshot(), 2502, 0x957cfc05b4b1a99eull},
      {"car", car.snapshot(), 509, 0x517026c1762fb82bull},
      {"count_matrix", counts.snapshot(), 189, 0x47e44add2c3972c8ull},
      {"correlator", corr.snapshot(), 737, 0x55354776287647e2ull},
      {"allan", allan.snapshot(), 89, 0x3fe995dc07938787ull},
      {"car_pairs", pairs.snapshot(), 305, 0x492618eb22133394ull},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(p.blob.size(), p.size) << p.kind;
    EXPECT_EQ(fnv1a64(p.blob), p.hash) << p.kind;
  }
}

TEST(EventStreamer, SnapshotRejectsCorruptBlobs) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  StreamConfig sc;
  sc.window_s = 0.1;
  EventStreamer s(engine_config(), sc, specs);
  auto blob = s.snapshot();
  EXPECT_THROW(EventStreamer::restore({}), std::invalid_argument);
  auto truncated = blob;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(EventStreamer::restore(truncated), std::invalid_argument);
  auto bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(EventStreamer::restore(bad_magic), std::invalid_argument);
  // An accumulator blob is not a streamer blob.
  detect::StreamingAllanAccumulator allan(40e-9, 0.1);
  EXPECT_THROW(EventStreamer::restore(allan.snapshot()), std::invalid_argument);

  // Every kind of length field, patched to a count no blob can hold, is
  // rejected before anything is allocated for it.
  const auto piecewise = specs_for(detect::EmissionMode::PiecewiseRates);
  const auto streamer_blob = EventStreamer(engine_config(), sc, piecewise).snapshot();
  // Layout: 9-byte header, EngineConfig (4 x 8), StreamConfig (2 x 8), the
  // spec count, then each spec: 6 doubles, 2 detectors of 4 doubles, the
  // mode byte, 5 pulsed doubles, the segment count and 6 doubles a segment.
  const std::size_t spec_count = 9 + 32 + 16;
  const std::size_t segment_count = spec_count + 8 + 48 + 64 + 1 + 40;
  const std::size_t spec_bytes = 48 + 64 + 1 + 40 + 8 + 3 * 48;
  // After the specs: k, the reported violations, then channel 0: 11
  // generators, the three pair samplers and arm a's four samplers.
  const std::size_t pending_arrivals =
      spec_count + 8 + 3 * spec_bytes + 16 + 11 * 32 + 10 + 10 + 26 + 10 + 26 + 10 + 26;
  ASSERT_EQ(read_u64(streamer_blob, spec_count), 3u);
  ASSERT_EQ(read_u64(streamer_blob, segment_count), 3u);
  ASSERT_EQ(read_u64(streamer_blob, pending_arrivals), 0u);

  // Accumulator layouts after the header: the merged sweep holds ns, ni,
  // the merged idler times and channels, the pending columns and the
  // counts; the diagonal one nch, the idler columns, the pending columns
  // and the counts; the Allan one the interval index, then its buffers.
  StreamWindow w;
  w.events.signal = EventTable::from_columns({{1e-3, 2e-3}, {5e-3}});
  w.events.idler = EventTable::from_columns({{1e-3}, {2e-3, 7e-3}});
  w.t_end_s = 1e-3;  // every signal event still pending
  detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, 10, 1);
  car.push(w);
  const auto car_blob = car.snapshot();
  const std::size_t merged_times = 9 + 16;
  const std::size_t merged_channels = merged_times + 8 + 8 * read_u64(car_blob, merged_times);
  const std::size_t merged_columns = merged_channels + 8 + 4 * read_u64(car_blob, merged_channels);
  ASSERT_EQ(read_u64(car_blob, merged_columns), 2u);
  const std::size_t merged_counts = car_blob.size() - 8 - 8 * 2 * 2 * 11;  // 2 x 2 cells of 11
  ASSERT_EQ(read_u64(car_blob, merged_counts), 44u);
  detect::StreamingCarPairsAccumulator pairs(kCarWindow, kCarSpacing, 10, 1);
  pairs.push(w);
  const auto pairs_blob = pairs.snapshot();
  ASSERT_EQ(read_u64(pairs_blob, 17), 2u);  // idler columns
  ASSERT_EQ(read_u64(pairs_blob, 25), 1u);  // idler column 0
  detect::StreamingAllanAccumulator allan_w(40e-9, 0.1, 0, 1);
  allan_w.push(w);
  const auto allan_blob = allan_w.snapshot();
  ASSERT_EQ(read_u64(allan_blob, 17), 2u);  // signal buffer

  for (const std::uint64_t n : {std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
    SCOPED_TRACE("count = " + std::to_string(n));
    for (const std::size_t at : {spec_count, segment_count, pending_arrivals})
      EXPECT_THROW(EventStreamer::restore(patch_u64(streamer_blob, at, n)),
                   std::invalid_argument) << "streamer offset " << at;
    for (const std::size_t at :
         {merged_times, merged_channels, merged_columns, merged_columns + 8, merged_counts}) {
      detect::StreamingCarAccumulator fresh(kCarWindow, kCarSpacing, 10, 1);
      EXPECT_THROW(fresh.restore(patch_u64(car_blob, at, n)), std::invalid_argument)
          << "car offset " << at;
    }
    for (const std::size_t at : {std::size_t{17}, std::size_t{25}}) {
      detect::StreamingCarPairsAccumulator fresh(kCarWindow, kCarSpacing, 10, 1);
      EXPECT_THROW(fresh.restore(patch_u64(pairs_blob, at, n)), std::invalid_argument)
          << "car pairs offset " << at;
    }
    detect::StreamingAllanAccumulator fresh(40e-9, 0.1, 0, 1);
    EXPECT_THROW(fresh.restore(patch_u64(allan_blob, 17, n)), std::invalid_argument);
  }
}

TEST(EventStreamer, SnapshotRejectsMismatchedShapes) {
  // A blob only fits an accumulator whose tables have its shape: a CAR
  // blob of 2 side windows per cell does not restore into one of 10, nor
  // the other way round, and merged idler channels must be in range.
  // Nothing is pushed after a restore.
  StreamWindow w;
  w.events.signal = EventTable::from_columns({{1e-3, 2e-3}, {5e-3}});
  w.events.idler = EventTable::from_columns({{1e-3}, {2e-3, 7e-3}});
  w.t_end_s = 2e-3;
  for (const auto& [from, into] : {std::pair{2, 10}, std::pair{10, 2}}) {
    SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(into) + " side windows");
    detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, from, 1);
    car.push(w);
    detect::StreamingCarAccumulator car_into(kCarWindow, kCarSpacing, into, 1);
    const auto car_before = car_into.snapshot();
    EXPECT_THROW(car_into.restore(car.snapshot()), std::invalid_argument);
    EXPECT_EQ(car_into.snapshot(), car_before);  // a rejected blob changes nothing

    detect::StreamingCarPairsAccumulator pairs(kCarWindow, kCarSpacing, from, 1);
    pairs.push(w);
    detect::StreamingCarPairsAccumulator pairs_into(kCarWindow, kCarSpacing, into, 1);
    const auto pairs_before = pairs_into.snapshot();
    EXPECT_THROW(pairs_into.restore(pairs.snapshot()), std::invalid_argument);
    EXPECT_EQ(pairs_into.snapshot(), pairs_before);
  }

  // A merged idler event must name an idler channel the counts have.
  detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, 10, 1);
  w.t_end_s = 1e-3;  // keep idler events carried
  car.push(w);
  const auto blob = car.snapshot();
  const std::size_t times = 9 + 16;  // after the header, ns and ni
  const std::size_t first_channel = times + 8 + 8 * read_u64(blob, times) + 8;
  ASSERT_GT(read_u64(blob, times), 0u);
  auto bad = blob;
  const std::uint32_t past_last = 2;  // two idler channels
  std::memcpy(bad.data() + first_channel, &past_last, sizeof past_last);
  detect::StreamingCarAccumulator car_into(kCarWindow, kCarSpacing, 10, 1);
  EXPECT_THROW(car_into.restore(bad), std::invalid_argument);
  car_into.restore(blob);
  EXPECT_EQ(car_into.snapshot(), blob);
}

TEST(EventStreamer, TinySlackForcesCountedBoundaryViolations) {
  // A pathological configuration — huge detector jitter, narrow linewidth,
  // and the look-ahead slack overridden to 1 ps — guarantees clicks and
  // arrivals materialize behind already-emitted boundaries. The streamer
  // must count them and still complete with valid (sorted) windows.
  std::vector<ChannelPairSpec> specs(1);
  specs[0].pair_rate_hz = 50000;
  specs[0].linewidth_hz = 1e3;  // Laplace delay scale ~160 us
  specs[0].detector_signal.efficiency = 0.9;
  specs[0].detector_signal.dark_rate_hz = 100;
  specs[0].detector_signal.jitter_sigma_s = 5e-3;
  specs[0].detector_signal.dead_time_s = 0;
  specs[0].detector_idler = specs[0].detector_signal;

  StreamConfig sc;
  sc.window_s = 0.05;
  sc.slack_override_s = 1e-12;
  EventStreamer s(engine_config(1), sc, specs);
  detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, 10, 1);
  detect::StreamingCarPairsAccumulator pairs(kCarWindow, kCarSpacing, 10, 1);
  StreamWindow w;
  std::size_t total = 0;
  while (s.next(w)) {
    total += w.events.signal.size() + w.events.idler.size();
    car.push(w);  // must tolerate out-of-order windows (repair paths)
    pairs.push(w);
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(s.boundary_violations(), 0u);
  // Both repair paths sort the same events, so the cells still agree.
  expect_car_diagonal(pairs.finish(), car.finish());
}

TEST(StreamingAllanAccumulator, MatchesDirectIntervalCounting) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  const EngineConfig ec = engine_config();
  const EngineResult batch = EventEngine(ec).run(specs);

  const double dt = 0.05;
  const double window = 40e-9;
  StreamConfig sc;
  sc.window_s = 0.02;  // windows do not align with the intervals
  EventStreamer s(ec, sc, specs);
  detect::StreamingAllanAccumulator acc(window, dt, 0, 0);
  StreamWindow w;
  while (s.next(w)) acc.push(w);
  const auto res = acc.finish();

  const auto sig = batch.signal.channel_clicks(0);
  const auto idl = batch.idler.channel_clicks(0);
  const auto n = static_cast<std::size_t>(kDuration / dt);
  ASSERT_EQ(res.counts.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t0 = static_cast<double>(i) * dt;
    const double t1 = static_cast<double>(i + 1) * dt;
    const std::vector<double> a(
        std::lower_bound(sig.begin(), sig.end(), t0),
        std::lower_bound(sig.begin(), sig.end(), t1));
    const std::vector<double> b(
        std::lower_bound(idl.begin(), idl.end(), t0),
        std::lower_bound(idl.begin(), idl.end(), t1));
    EXPECT_EQ(res.counts[i],
              static_cast<double>(detect::count_coincidences(a, b, window)))
        << "interval " << i;
  }
  EXPECT_GT(res.mean_counts, 0.0);
  EXPECT_FALSE(res.allan.empty());
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
  EXPECT_THROW(detect::StreamingAllanAccumulator(0, 1), std::invalid_argument);

  // Non-finite windows, spacings, offsets, bin widths, ranges and sample
  // intervals are rejected by every accumulator.
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
  EXPECT_THROW((void)detect::StreamingCountMatrixAccumulator(nan), std::invalid_argument);
  EXPECT_THROW((void)detect::StreamingCountMatrixAccumulator(inf), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCountMatrixAccumulator(1e-9, nan), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCountMatrixAccumulator(1e-9, -inf), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCorrelatorAccumulator(1e-9, nan), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCorrelatorAccumulator(1e-9, inf), std::invalid_argument);
  EXPECT_THROW(detect::StreamingCorrelatorAccumulator(nan, 1e-8), std::invalid_argument);
  EXPECT_THROW(detect::StreamingAllanAccumulator(nan, 1), std::invalid_argument);
  EXPECT_THROW(detect::StreamingAllanAccumulator(40e-9, nan), std::invalid_argument);
  EXPECT_THROW(detect::StreamingAllanAccumulator(40e-9, inf), std::invalid_argument);

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
  EXPECT_THROW((void)pairs.snapshot(), std::logic_error);
  detect::StreamingCarPairsAccumulator empty(kCarWindow, kCarSpacing, 10, 1);
  EXPECT_TRUE(empty.finish().empty());
  StreamWindow mismatched = w;
  mismatched.events.idler = EventTable::from_columns({{1e-3}, {2e-3}, {3e-3}});
  detect::StreamingCarPairsAccumulator pairs_mm(kCarWindow, kCarSpacing, 10, 1);
  EXPECT_THROW(pairs_mm.push(mismatched), std::invalid_argument);
}

}  // namespace
