#pragma once

/// \file engine_plan.hpp
/// Internal: per-channel generation plan of the EventStreamer
/// (streaming.cpp), which also drives EventEngine::run. Builds the
/// validated kernel-parameter structs for a ChannelPairSpec. Not installed
/// API; include only from qfc::detect translation units.

#include <cmath>
#include <stdexcept>
#include <string>

#include "qfc/detect/emission_samplers.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/event_stream.hpp"

namespace qfc::detect::detail {

/// The EngineConfig checks of EventEngine and EventStreamer. The duration
/// must be finite: it sets the window count.
inline void check_engine_config(const EngineConfig& cfg) {
  if (!(std::isfinite(cfg.duration_s) && cfg.duration_s > 0))
    throw std::invalid_argument("EngineConfig: duration <= 0 or non-finite");
  if (cfg.num_threads < 0) throw std::invalid_argument("EngineConfig: negative thread count");
  if (cfg.analysis_threads < 0)
    throw std::invalid_argument("EngineConfig: negative analysis thread count");
}

/// Time average of segment rate `member` over a PiecewiseRates spec's
/// segments; 0 in the other modes, which ignore their segments.
inline double mean_segment_rate_hz(const ChannelPairSpec& spec, double RateSegment::*member) {
  if (spec.emission != EmissionMode::PiecewiseRates) return 0.0;
  double total = 0, rate_time = 0;
  for (const RateSegment& seg : spec.segments) {
    total += seg.duration_s;
    rate_time += seg.*member * seg.duration_s;
  }
  return total > 0 ? rate_time / total : 0.0;
}

/// Per-channel generation plan, fully validated before any parallel work.
/// The mode's parameter struct carries the per-arm survival probabilities
/// e = T·η (channel transmission times detector efficiency) as its
/// transmissions, and `thin` is the pair thinning they give: the emission
/// sampler draws only pairs that can click, so the detector pass draws
/// jitter only.
struct ChannelPlan {
  EmissionMode mode = EmissionMode::Cw;
  PairStreamParams cw;
  PulsedStreamParams pulsed;
  PiecewiseStreamParams piecewise;
  PairThinning thin{0.0, 0.0};
};

/// Validates `p` with the spec's own transmissions, then folds each arm's
/// detector efficiency into them; returns the pair thinning they give.
template <class Params>
PairThinning fold_efficiency(Params& p, const ChannelPairSpec& spec) {
  p.validate();
  p.transmission_a *= spec.detector_signal.efficiency;
  p.transmission_b *= spec.detector_idler.efficiency;
  return PairThinning(p.transmission_a, p.transmission_b);
}

/// Expects the spec's detectors validated (make_checked_plan does that).
inline ChannelPlan make_plan(const ChannelPairSpec& spec, double duration_s) {
  ChannelPlan plan;
  plan.mode = spec.emission;
  switch (spec.emission) {
    case EmissionMode::Cw:
      plan.cw.pair_rate_hz = spec.pair_rate_hz;
      plan.cw.linewidth_hz = spec.linewidth_hz;
      plan.cw.duration_s = duration_s;
      plan.cw.transmission_a = spec.transmission_signal;
      plan.cw.transmission_b = spec.transmission_idler;
      plan.thin = fold_efficiency(plan.cw, spec);
      break;
    case EmissionMode::Pulsed:
      if (spec.pair_rate_hz != 0)
        throw std::invalid_argument(
            "ChannelPairSpec: Pulsed mode needs pair_rate_hz == 0 (the rate is "
            "mean_pairs_per_pulse x repetition_rate_hz)");
      plan.pulsed.repetition_rate_hz = spec.pulsed.repetition_rate_hz;
      plan.pulsed.mean_pairs_per_pulse = spec.pulsed.mean_pairs_per_pulse;
      plan.pulsed.pulse_sigma_s = spec.pulsed.pulse_sigma_s;
      plan.pulsed.bin_separation_s = spec.pulsed.bin_separation_s;
      plan.pulsed.late_fraction = spec.pulsed.late_fraction;
      plan.pulsed.linewidth_hz = spec.linewidth_hz;
      plan.pulsed.duration_s = duration_s;
      plan.pulsed.transmission_a = spec.transmission_signal;
      plan.pulsed.transmission_b = spec.transmission_idler;
      plan.thin = fold_efficiency(plan.pulsed, spec);
      break;
    case EmissionMode::PiecewiseRates:
      if (spec.pair_rate_hz != 0)
        throw std::invalid_argument(
            "ChannelPairSpec: PiecewiseRates mode needs pair_rate_hz == 0 (the "
            "segments carry the pair rate)");
      plan.piecewise.segments = spec.segments;
      plan.piecewise.linewidth_hz = spec.linewidth_hz;
      plan.piecewise.duration_s = duration_s;
      plan.piecewise.transmission_a = spec.transmission_signal;
      plan.piecewise.transmission_b = spec.transmission_idler;
      plan.thin = fold_efficiency(plan.piecewise, spec);
      break;
  }
  return plan;
}

/// Validation wrapper the engine uses when planning a whole spec list: the
/// spec-level checks (background rates, detector parameters) plus make_plan, with the channel index prefixed onto any error so one bad
/// entry in a hundreds-of-channels plan (e.g. a QkdNetwork user list) names
/// the offender instead of forcing a bisection.
inline ChannelPlan make_checked_plan(const ChannelPairSpec& spec, double duration_s,
                                     std::size_t channel) {
  try {
    for (double rate : {spec.background_rate_signal_hz, spec.background_rate_idler_hz})
      if (!(std::isfinite(rate) && rate >= 0))
        throw std::invalid_argument("ChannelPairSpec: negative or non-finite background rate");
    spec.detector_signal.validate();
    spec.detector_idler.validate();
    return make_plan(spec, duration_s);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("channel " + std::to_string(channel) + ": " + e.what());
  }
}

}  // namespace qfc::detect::detail
