// The engine thins its pair and background clocks by transmission times
// detector efficiency (e = T·η) inside the emission samplers and runs a
// jitter-only detector pass. By Poisson thinning and colouring this leaves
// the law of the clicks unchanged. These tests check that against an
// unthinned reference that lives only here: every pair drawn on the full
// clock, one transmission Bernoulli per arm, then SinglePhotonDetector with
// its efficiency draw. Over many seeds, per-seed singles, coincidences and
// CAR of the two chains must agree, for CW, Pulsed and PiecewiseRates
// emission. The edges (an arm at e = 0, both arms at e = 1, η = 0 under a
// background) are checked exactly where the thinned chain allows it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/detector.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/rng/distributions.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace {

using namespace qfc;
using detect::ChannelPairSpec;
using detect::EmissionMode;

constexpr double kDuration = 0.02;
constexpr int kSeeds = 400;
constexpr double kCarWindow = 4e-9;
constexpr double kCarSpacing = 50e-9;

// Acceptance bounds. Each statistic is compared twice over the per-seed
// samples: a two-sample Kolmogorov-Smirnov test at alpha = 1e-4, whose
// critical distance is c·sqrt((n+m)/(n·m)) with c = sqrt(-ln(alpha/2)/2)
// = 2.225, and the difference of the means within 5 standard errors.
constexpr double kKsC = 2.225;
constexpr double kMeanSigmas = 5.0;

ChannelPairSpec base_spec() {
  ChannelPairSpec s;
  s.pair_rate_hz = 2e5;
  s.linewidth_hz = 200e6;
  s.transmission_signal = 0.6;
  s.transmission_idler = 0.5;
  s.background_rate_signal_hz = 2e4;
  s.background_rate_idler_hz = 1e4;
  s.detector_signal.efficiency = 0.3;
  s.detector_signal.dark_rate_hz = 2e3;
  s.detector_signal.jitter_sigma_s = 100e-12;
  s.detector_signal.dead_time_s = 1e-6;
  s.detector_idler = s.detector_signal;
  s.detector_idler.efficiency = 0.25;
  s.detector_idler.dark_rate_hz = 3e3;
  return s;
}

ChannelPairSpec spec_for(EmissionMode mode) {
  ChannelPairSpec s = base_spec();
  s.emission = mode;
  switch (mode) {
    case EmissionMode::Cw:
      break;
    case EmissionMode::Pulsed:
      s.pair_rate_hz = 0;
      s.pulsed.repetition_rate_hz = 2e6;
      s.pulsed.mean_pairs_per_pulse = 0.1;
      s.pulsed.pulse_sigma_s = 20e-12;
      s.pulsed.bin_separation_s = 500e-12;
      s.pulsed.late_fraction = 0.4;
      break;
    case EmissionMode::PiecewiseRates:
      s.pair_rate_hz = 0;
      s.segments = {{0.008, 3e5, 1e4, 0.0, 1e3, 0.0},
                    {0.007, 5e4, 0.0, 2e4, 0.0, 2e3},
                    {0.005, 2e5, 5e3, 5e3, 5e2, 5e2}};
      break;
  }
  return s;
}

// ------------------------------------------------ the unthinned reference

/// Homogeneous Poisson times on [start, end) at `rate_hz`, appended.
void poisson_times(double rate_hz, double start, double end, rng::Xoshiro256& g,
                   std::vector<double>& out) {
  if (rate_hz <= 0) return;
  for (double t = start + rng::sample_exponential(g, rate_hz); t < end;
       t += rng::sample_exponential(g, rate_hz))
    out.push_back(t);
}

/// Piecewise Poisson times of one RateSegment member, appended.
void segment_times(const std::vector<detect::RateSegment>& segments,
                   double detect::RateSegment::*rate, rng::Xoshiro256& g,
                   std::vector<double>& out) {
  double start = 0;
  for (const detect::RateSegment& seg : segments) {
    poisson_times(seg.*rate, start, std::min(start + seg.duration_s, kDuration), g, out);
    start += seg.duration_s;
  }
}

/// Every pair on the full clock, then one transmission Bernoulli per arm.
detect::PairStreams unthinned_photons(const ChannelPairSpec& spec, rng::Xoshiro256& g) {
  detect::PairStreams s;
  const double delay_rate = 2.0 * photonics::pi * spec.linewidth_hz;
  const auto emit = [&](double t0) {
    const double delta = rng::sample_double_exponential(g, delay_rate);
    const double ta = t0 + delta / 2.0;
    const double tb = t0 - delta / 2.0;
    if (ta >= 0 && ta < kDuration && rng::sample_bernoulli(g, spec.transmission_signal))
      s.a.push_back(ta);
    if (tb >= 0 && tb < kDuration && rng::sample_bernoulli(g, spec.transmission_idler))
      s.b.push_back(tb);
  };
  std::vector<double> births;
  switch (spec.emission) {
    case EmissionMode::Cw:
      poisson_times(spec.pair_rate_hz, 0, kDuration, g, births);
      break;
    case EmissionMode::PiecewiseRates:
      segment_times(spec.segments, &detect::RateSegment::pair_rate_hz, g, births);
      break;
    case EmissionMode::Pulsed: {
      // One Poisson pair number per pulse slot.
      const detect::PulsedEmission& p = spec.pulsed;
      const double period = 1.0 / p.repetition_rate_hz;
      for (double k = 0; k * period < kDuration; k += 1.0) {
        const std::uint64_t n = rng::sample_poisson(g, p.mean_pairs_per_pulse);
        for (std::uint64_t i = 0; i < n; ++i) {
          double t0 = k * period;
          if (rng::sample_bernoulli(g, p.late_fraction)) t0 += p.bin_separation_s;
          t0 += rng::sample_normal(g, 0.0, p.pulse_sigma_s);
          births.push_back(t0);
        }
      }
      break;
    }
  }
  for (double t0 : births) emit(t0);
  return s;
}

/// One arm through the full detector: backgrounds join the photons, then
/// efficiency, jitter, darks (internal and scheduled) and dead time.
std::vector<double> unthinned_arm(std::vector<double> photons, double bg_rate_hz,
                                  double detect::RateSegment::*pwbg,
                                  double detect::RateSegment::*pwdark,
                                  const ChannelPairSpec& spec,
                                  const detect::DetectorParams& det, rng::Xoshiro256& g) {
  poisson_times(bg_rate_hz, 0, kDuration, g, photons);
  segment_times(spec.segments, pwbg, g, photons);
  std::vector<double> schedule_darks;
  segment_times(spec.segments, pwdark, g, schedule_darks);
  return detect::SinglePhotonDetector(det).detect(photons, schedule_darks, kDuration, g);
}

struct Clicks {
  std::vector<double> a, b;
};

Clicks unthinned_run(const ChannelPairSpec& spec, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  const detect::PairStreams photons = unthinned_photons(spec, g);
  return {unthinned_arm(photons.a, spec.background_rate_signal_hz,
                        &detect::RateSegment::background_rate_signal_hz,
                        &detect::RateSegment::dark_rate_signal_hz, spec, spec.detector_signal,
                        g),
          unthinned_arm(photons.b, spec.background_rate_idler_hz,
                        &detect::RateSegment::background_rate_idler_hz,
                        &detect::RateSegment::dark_rate_idler_hz, spec, spec.detector_idler,
                        g)};
}

Clicks engine_run(const ChannelPairSpec& spec, std::uint64_t seed) {
  detect::EngineConfig ec;
  ec.duration_s = kDuration;
  ec.seed = seed;
  ec.num_threads = 1;
  const detect::EngineResult r = detect::EventEngine(ec).run({spec});
  return {r.signal.channel_clicks(0), r.idler.channel_clicks(0)};
}

// --------------------------------------------------------- the statistics

struct Samples {
  std::vector<double> singles_a, singles_b, coincidences, car;

  void add(const Clicks& c) {
    const detect::CarResult car_result = detect::measure_car(c.a, c.b, kCarWindow, kCarSpacing);
    singles_a.push_back(static_cast<double>(c.a.size()));
    singles_b.push_back(static_cast<double>(c.b.size()));
    coincidences.push_back(car_result.coincidences);
    car.push_back(car_result.car);
  }
};

/// Two-sample Kolmogorov-Smirnov distance sup |F_x - F_y|.
double ks_distance(std::vector<double> x, std::vector<double> y) {
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  std::size_t i = 0, j = 0;
  double d = 0;
  while (i < x.size() && j < y.size()) {
    const double t = std::min(x[i], y[j]);
    while (i < x.size() && x[i] <= t) ++i;
    while (j < y.size() && y[j] <= t) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / static_cast<double>(x.size()) -
                             static_cast<double>(j) / static_cast<double>(y.size())));
  }
  return d;
}

double mean(const std::vector<double>& x) {
  double s = 0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(const std::vector<double>& x) {
  const double m = mean(x);
  double s = 0;
  for (double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size() - 1);
}

void expect_same_law(const std::vector<double>& thinned, const std::vector<double>& reference,
                     const std::string& what) {
  const double n = static_cast<double>(thinned.size());
  const double m = static_cast<double>(reference.size());
  EXPECT_LT(ks_distance(thinned, reference), kKsC * std::sqrt((n + m) / (n * m)))
      << what << ": KS distance";
  const double se = std::sqrt(variance(thinned) / n + variance(reference) / m);
  EXPECT_LE(std::abs(mean(thinned) - mean(reference)), kMeanSigmas * se)
      << what << ": means " << mean(thinned) << " vs " << mean(reference);
}

void expect_engine_matches_reference(const ChannelPairSpec& spec, const std::string& label) {
  Samples thinned, reference;
  for (int k = 0; k < kSeeds; ++k) {
    thinned.add(engine_run(spec, 1000 + static_cast<std::uint64_t>(k)));
    reference.add(unthinned_run(spec, 500000 + static_cast<std::uint64_t>(k)));
  }
  // Guard against a vacuous comparison: the configuration must produce
  // true coincidences.
  ASSERT_GT(mean(reference.coincidences), 20.0) << label;
  expect_same_law(thinned.singles_a, reference.singles_a, label + " signal singles");
  expect_same_law(thinned.singles_b, reference.singles_b, label + " idler singles");
  expect_same_law(thinned.coincidences, reference.coincidences, label + " coincidences");
  expect_same_law(thinned.car, reference.car, label + " CAR");
}

class ThinningLaw : public ::testing::TestWithParam<EmissionMode> {};

TEST_P(ThinningLaw, EngineMatchesUnthinnedReference) {
  const EmissionMode mode = GetParam();
  expect_engine_matches_reference(spec_for(mode), "mode " + std::to_string(static_cast<int>(mode)));
}

TEST_P(ThinningLaw, EngineMatchesUnthinnedReferenceAtUnitSurvival) {
  // e = 1 on both arms: every pair keeps both photons.
  ChannelPairSpec spec = spec_for(GetParam());
  spec.transmission_signal = spec.transmission_idler = 1.0;
  spec.detector_signal.efficiency = spec.detector_idler.efficiency = 1.0;
  expect_engine_matches_reference(spec, "e = 1, mode " +
                                            std::to_string(static_cast<int>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(AllEmissionModes, ThinningLaw,
                         ::testing::Values(EmissionMode::Cw, EmissionMode::Pulsed,
                                           EmissionMode::PiecewiseRates));

// ------------------------------------------------------------- the edges

/// The same spec with no pair emission: pair_rate_hz, mean_pairs_per_pulse
/// or every segment pair rate set to 0.
ChannelPairSpec without_pairs(ChannelPairSpec spec) {
  spec.pair_rate_hz = 0;
  spec.pulsed.mean_pairs_per_pulse = 0;
  for (detect::RateSegment& seg : spec.segments) seg.pair_rate_hz = 0;
  return spec;
}

class ThinningEdges : public ::testing::TestWithParam<EmissionMode> {};

TEST_P(ThinningEdges, ZeroSurvivalArmsDrawNoPairs) {
  // An arm at e = 0 gets no pair photons: its column is bitwise the column
  // of the same spec without pairs (darks and backgrounds only, on their
  // own sub-streams). With both arms at e = 0 the pair stream is never
  // drawn, so both columns are.
  const ChannelPairSpec base = spec_for(GetParam());
  const std::uint64_t seed = 77;
  const Clicks no_pairs = engine_run(without_pairs(base), seed);
  ASSERT_FALSE(no_pairs.a.empty());
  ASSERT_FALSE(no_pairs.b.empty());

  ChannelPairSpec a_dark = base;  // e_a = 0 through the transmission
  a_dark.transmission_signal = 0;
  const Clicks a_only_dark = engine_run(a_dark, seed);
  EXPECT_EQ(a_only_dark.a, no_pairs.a);
  EXPECT_GT(a_only_dark.b.size(), 2 * no_pairs.b.size()) << "the idler arm still gets pairs";

  ChannelPairSpec b_dark = base;  // e_b = 0 through the transmission
  b_dark.transmission_idler = 0;
  const Clicks b_only_dark = engine_run(b_dark, seed);
  EXPECT_EQ(b_only_dark.b, no_pairs.b);
  EXPECT_GT(b_only_dark.a.size(), 2 * no_pairs.a.size()) << "the signal arm still gets pairs";

  ChannelPairSpec both_dark = base;
  both_dark.transmission_signal = both_dark.transmission_idler = 0;
  const Clicks none = engine_run(both_dark, seed);
  EXPECT_EQ(none.a, no_pairs.a);
  EXPECT_EQ(none.b, no_pairs.b);
}

TEST_P(ThinningEdges, ZeroEfficiencyKeepsOnlyDarks) {
  // η = 0 under a non-zero background: neither pair photons nor background
  // photons click, so each column is bitwise the column of a spec with no
  // pairs and no backgrounds, which holds darks only.
  ChannelPairSpec blind = spec_for(GetParam());
  blind.detector_signal.efficiency = blind.detector_idler.efficiency = 0;
  ASSERT_GT(blind.background_rate_signal_hz, 0);
  ChannelPairSpec darks_only = without_pairs(blind);
  darks_only.background_rate_signal_hz = darks_only.background_rate_idler_hz = 0;
  for (detect::RateSegment& seg : darks_only.segments)
    seg.background_rate_signal_hz = seg.background_rate_idler_hz = 0;

  const std::uint64_t seed = 78;
  const Clicks got = engine_run(blind, seed);
  const Clicks want = engine_run(darks_only, seed);
  ASSERT_FALSE(want.a.empty());
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
}

TEST_P(ThinningEdges, UnitSurvivalPairsKeepBothPhotons) {
  // e = 1 on both arms, ideal detectors, no background or darks: every pair
  // reaches both arms, so every click of one arm has its partner within
  // the pair delay and the pulse-bin spread.
  ChannelPairSpec spec = spec_for(GetParam());
  spec.transmission_signal = spec.transmission_idler = 1.0;
  spec.background_rate_signal_hz = spec.background_rate_idler_hz = 0;
  for (detect::DetectorParams* d : {&spec.detector_signal, &spec.detector_idler}) {
    d->efficiency = 1.0;
    d->dark_rate_hz = 0;
    d->jitter_sigma_s = 0;
    d->dead_time_s = 0;
  }
  for (detect::RateSegment& seg : spec.segments)
    seg.background_rate_signal_hz = seg.background_rate_idler_hz = seg.dark_rate_signal_hz =
        seg.dark_rate_idler_hz = 0;
  const Clicks c = engine_run(spec, 79);
  ASSERT_GT(c.a.size(), 1000u);
  // Only a pair straddling an end of the run can lose one photon.
  EXPECT_LE(std::max(c.a.size(), c.b.size()) - std::min(c.a.size(), c.b.size()), 2u);
  // P(|delay| > 20 ns) = exp(-2π δν · 20 ns) = e^-25 per pair.
  constexpr double kReach = 20e-9;
  std::size_t unpartnered = 0;
  for (double ta : c.a) {
    if (ta < kReach || ta >= kDuration - kReach) continue;
    const auto it = std::lower_bound(c.b.begin(), c.b.end(), ta - kReach);
    if (it == c.b.end() || *it > ta + kReach) ++unpartnered;
  }
  EXPECT_EQ(unpartnered, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEmissionModes, ThinningEdges,
                         ::testing::Values(EmissionMode::Cw, EmissionMode::Pulsed,
                                           EmissionMode::PiecewiseRates));

}  // namespace
