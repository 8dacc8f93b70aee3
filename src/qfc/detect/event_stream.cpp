#include "qfc/detect/event_stream.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "qfc/detect/emission_samplers.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::detect {

void PairStreamParams::validate() const {
  if (pair_rate_hz < 0) throw std::invalid_argument("PairStreamParams: negative rate");
  if (linewidth_hz <= 0) throw std::invalid_argument("PairStreamParams: linewidth <= 0");
  if (duration_s <= 0) throw std::invalid_argument("PairStreamParams: duration <= 0");
  if (transmission_a < 0 || transmission_a > 1 || transmission_b < 0 || transmission_b > 1)
    throw std::invalid_argument("PairStreamParams: transmission outside [0,1]");
}

namespace detail {

void emit_pair(double t0, double delay_scale, double duration_s, double transmission_a,
               double transmission_b, PairStreams& s, rng::Xoshiro256& g) {
  // Symmetrize: put half the Laplace delay on each photon so neither arm
  // is systematically early.
  const double delta = rng::sample_double_exponential(g, 1.0 / delay_scale);
  const double ta = t0 + delta / 2.0;
  const double tb = t0 - delta / 2.0;
  if (ta >= 0 && ta < duration_s && rng::sample_bernoulli(g, transmission_a))
    s.a.push_back(ta);
  if (tb >= 0 && tb < duration_s && rng::sample_bernoulli(g, transmission_b))
    s.b.push_back(tb);
}

}  // namespace detail

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The pair emission times are generated in order and the signal-idler
/// delay is ~1/(2π δν), usually far below the mean pair spacing: both
/// arms are almost always already sorted, so probe before sorting. (Pulsed
/// pairs are emitted bin-unordered within one repetition period.)
void sort_if_needed(PairStreams& s) {
  if (!std::is_sorted(s.a.begin(), s.a.end())) std::sort(s.a.begin(), s.a.end());
  if (!std::is_sorted(s.b.begin(), s.b.end())) std::sort(s.b.begin(), s.b.end());
}

}  // namespace

// Each generator is one sampler of emission_samplers.hpp advanced to +∞.

PairStreams generate_pair_arrivals(const PairStreamParams& p, rng::Xoshiro256& g) {
  p.validate();
  PairStreams s;
  detail::ExpState{}.advance(p.pair_rate_hz, p.duration_s, kInf, g,
                             detail::pair_emitter(p, s, g));
  sort_if_needed(s);
  return s;
}

std::vector<double> generate_poisson_arrivals(double rate_hz, double duration_s,
                                              rng::Xoshiro256& g) {
  if (rate_hz < 0) throw std::invalid_argument("generate_poisson_arrivals: negative rate");
  if (duration_s <= 0) throw std::invalid_argument("generate_poisson_arrivals: duration <= 0");
  std::vector<double> out;
  detail::ExpState{}.advance(rate_hz, duration_s, kInf, g, detail::push_into(out));
  return out;
}

void PulsedStreamParams::validate() const {
  if (repetition_rate_hz <= 0)
    throw std::invalid_argument("PulsedStreamParams: repetition rate <= 0");
  if (mean_pairs_per_pulse < 0)
    throw std::invalid_argument("PulsedStreamParams: negative mean pairs per pulse");
  if (pulse_sigma_s < 0)
    throw std::invalid_argument("PulsedStreamParams: negative pulse jitter");
  if (bin_separation_s < 0)
    throw std::invalid_argument("PulsedStreamParams: negative bin separation");
  if (bin_separation_s >= 1.0 / repetition_rate_hz)
    throw std::invalid_argument(
        "PulsedStreamParams: bin separation >= repetition period");
  if (late_fraction < 0 || late_fraction > 1)
    throw std::invalid_argument("PulsedStreamParams: late fraction outside [0,1]");
  if (linewidth_hz <= 0) throw std::invalid_argument("PulsedStreamParams: linewidth <= 0");
  if (duration_s <= 0) throw std::invalid_argument("PulsedStreamParams: duration <= 0");
  if (transmission_a < 0 || transmission_a > 1 || transmission_b < 0 || transmission_b > 1)
    throw std::invalid_argument("PulsedStreamParams: transmission outside [0,1]");
}

PairStreams generate_pulsed_pair_arrivals(const PulsedStreamParams& p,
                                          rng::Xoshiro256& g) {
  p.validate();
  PairStreams s;
  detail::PulsedState{}.advance(p, kInf, g, detail::pair_emitter(p, s, g));
  sort_if_needed(s);
  return s;
}

namespace {

void validate_segments(const std::vector<RateSegment>& segments, double duration_s) {
  if (segments.empty())
    throw std::invalid_argument("RateSegment schedule: no segments");
  double total = 0;
  for (const RateSegment& seg : segments) {
    if (seg.duration_s <= 0)
      throw std::invalid_argument("RateSegment: segment duration <= 0");
    if (seg.pair_rate_hz < 0 || seg.background_rate_signal_hz < 0 ||
        seg.background_rate_idler_hz < 0 || seg.dark_rate_signal_hz < 0 ||
        seg.dark_rate_idler_hz < 0)
      throw std::invalid_argument("RateSegment: negative rate");
    total += seg.duration_s;
  }
  // Tiny relative slack so schedules assembled as duration/n sums are not
  // rejected for float rounding.
  if (total < duration_s * (1.0 - 1e-9))
    throw std::invalid_argument(
        "RateSegment schedule: segments do not cover the stream duration");
}

}  // namespace

void PiecewiseStreamParams::validate() const {
  validate_segments(segments, duration_s);
  if (linewidth_hz <= 0)
    throw std::invalid_argument("PiecewiseStreamParams: linewidth <= 0");
  if (duration_s <= 0) throw std::invalid_argument("PiecewiseStreamParams: duration <= 0");
  if (transmission_a < 0 || transmission_a > 1 || transmission_b < 0 || transmission_b > 1)
    throw std::invalid_argument("PiecewiseStreamParams: transmission outside [0,1]");
}

PairStreams generate_piecewise_pair_arrivals(const PiecewiseStreamParams& p,
                                             rng::Xoshiro256& g) {
  p.validate();
  PairStreams s;
  detail::PwState{}.advance(p.segments, &RateSegment::pair_rate_hz, p.duration_s, kInf, g,
                            detail::pair_emitter(p, s, g));
  sort_if_needed(s);
  return s;
}

std::vector<double> generate_piecewise_poisson_arrivals(
    const std::vector<RateSegment>& segments, double RateSegment::*rate,
    double duration_s, rng::Xoshiro256& g) {
  if (duration_s <= 0)
    throw std::invalid_argument("generate_piecewise_poisson_arrivals: duration <= 0");
  validate_segments(segments, duration_s);
  std::vector<double> out;
  detail::PwState{}.advance(segments, rate, duration_s, kInf, g, detail::push_into(out));
  return out;
}

}  // namespace qfc::detect
