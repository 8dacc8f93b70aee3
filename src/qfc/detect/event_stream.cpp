#include "qfc/detect/event_stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "qfc/detect/emission_samplers.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::detect {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Each check is written so that NaN fails it; a rate, width or duration
// must also be finite (an infinite rate never advances a Poisson clock).
bool non_negative(double x) { return std::isfinite(x) && x >= 0; }
bool positive(double x) { return std::isfinite(x) && x > 0; }
bool fraction(double x) { return x >= 0 && x <= 1; }

/// The checks the three pair-stream parameter structs share.
template <class Params>
void validate_pair_stream(const Params& p, const std::string& who) {
  if (!positive(p.linewidth_hz))
    throw std::invalid_argument(who + ": linewidth <= 0 or non-finite");
  if (!positive(p.duration_s)) throw std::invalid_argument(who + ": duration <= 0 or non-finite");
  if (!fraction(p.transmission_a) || !fraction(p.transmission_b))
    throw std::invalid_argument(who + ": transmission outside [0,1]");
}

}  // namespace

void PairStreamParams::validate() const {
  if (!non_negative(pair_rate_hz))
    throw std::invalid_argument("PairStreamParams: negative or non-finite rate");
  validate_pair_stream(*this, "PairStreamParams");
}

namespace {

/// The pair emission times are generated in order and the signal-idler
/// delay is ~1/(2π δν), usually far below the mean pair spacing: both
/// arms are almost always already sorted, so probe before sorting. (Pulsed
/// pairs are emitted bin-unordered within one repetition period.)
void sort_if_needed(PairStreams& s) {
  if (!std::is_sorted(s.a.begin(), s.a.end())) std::sort(s.a.begin(), s.a.end());
  if (!std::is_sorted(s.b.begin(), s.b.end())) std::sort(s.b.begin(), s.b.end());
}

}  // namespace

// Each generator is one sampler of emission_samplers.hpp advanced to +∞,
// its pair clock thinned by the arm transmissions.

PairStreams generate_pair_arrivals(const PairStreamParams& p, rng::Xoshiro256& g) {
  p.validate();
  PairStreams s;
  const detail::PairThinning thin(p.transmission_a, p.transmission_b);
  detail::ExpState{}.advance(p.pair_rate_hz * thin.p_any, p.duration_s, kInf, g,
                             detail::pair_emitter(p, thin, s, g));
  sort_if_needed(s);
  return s;
}

std::vector<double> generate_poisson_arrivals(double rate_hz, double duration_s,
                                              rng::Xoshiro256& g) {
  if (!non_negative(rate_hz))
    throw std::invalid_argument("generate_poisson_arrivals: negative or non-finite rate");
  if (!positive(duration_s))
    throw std::invalid_argument("generate_poisson_arrivals: duration <= 0 or non-finite");
  std::vector<double> out;
  detail::ExpState{}.advance(rate_hz, duration_s, kInf, g, detail::push_into(out));
  return out;
}

void PulsedStreamParams::validate() const {
  if (!positive(repetition_rate_hz))
    throw std::invalid_argument("PulsedStreamParams: repetition rate <= 0 or non-finite");
  if (!non_negative(mean_pairs_per_pulse))
    throw std::invalid_argument("PulsedStreamParams: negative or non-finite mean pairs per pulse");
  if (!non_negative(pulse_sigma_s))
    throw std::invalid_argument("PulsedStreamParams: negative or non-finite pulse jitter");
  if (!non_negative(bin_separation_s))
    throw std::invalid_argument("PulsedStreamParams: negative or non-finite bin separation");
  if (bin_separation_s >= 1.0 / repetition_rate_hz)
    throw std::invalid_argument(
        "PulsedStreamParams: bin separation >= repetition period");
  if (!fraction(late_fraction))
    throw std::invalid_argument("PulsedStreamParams: late fraction outside [0,1]");
  validate_pair_stream(*this, "PulsedStreamParams");
}

PairStreams generate_pulsed_pair_arrivals(const PulsedStreamParams& p,
                                          rng::Xoshiro256& g) {
  p.validate();
  PairStreams s;
  const detail::PairThinning thin(p.transmission_a, p.transmission_b);
  detail::PulsedState{}.advance(p, thin.p_any, kInf, g, detail::pair_emitter(p, thin, s, g));
  sort_if_needed(s);
  return s;
}

namespace {

void validate_segments(const std::vector<RateSegment>& segments, double duration_s) {
  if (segments.empty())
    throw std::invalid_argument("RateSegment schedule: no segments");
  double total = 0;
  for (const RateSegment& seg : segments) {
    if (!positive(seg.duration_s))
      throw std::invalid_argument("RateSegment: segment duration <= 0 or non-finite");
    if (!non_negative(seg.pair_rate_hz) || !non_negative(seg.background_rate_signal_hz) ||
        !non_negative(seg.background_rate_idler_hz) ||
        !non_negative(seg.dark_rate_signal_hz) || !non_negative(seg.dark_rate_idler_hz))
      throw std::invalid_argument("RateSegment: negative or non-finite rate");
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
  validate_pair_stream(*this, "PiecewiseStreamParams");
}

PairStreams generate_piecewise_pair_arrivals(const PiecewiseStreamParams& p,
                                             rng::Xoshiro256& g) {
  p.validate();
  PairStreams s;
  const detail::PairThinning thin(p.transmission_a, p.transmission_b);
  detail::PwState{}.advance(p.segments, &RateSegment::pair_rate_hz, thin.p_any, p.duration_s,
                            kInf, g, detail::pair_emitter(p, thin, s, g));
  sort_if_needed(s);
  return s;
}

}  // namespace qfc::detect
