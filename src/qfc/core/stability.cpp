#include "qfc/core/stability.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/streaming.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/photonics/device_presets.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::core {

namespace {

double observation_s(const StabilityConfig& cfg) { return cfg.observation_days * 24.0 * 3600.0; }

}  // namespace

void StabilityConfig::validate() const {
  io::check_fields(*this, "StabilityConfig");
  if (!(observation_s(*this) >= sample_interval_s))
    throw std::invalid_argument(
        "StabilityConfig.observation_days: must cover at least one sample_interval_s");
}

StabilityExperiment::StabilityExperiment(photonics::MicroringResonator device,
                                         StabilityConfig cfg)
    : device_(device), cfg_(cfg) {
  cfg_.validate();
}

double StabilityExperiment::relative_rate_at_detuning(double detuning_hz) const {
  const double lw =
      device_.linewidth_hz(photonics::itu_anchor_hz, photonics::Polarization::TE);
  const double x = 2.0 * detuning_hz / lw;
  const double enhancement = 1.0 / (1.0 + x * x);  // Lorentzian intensity
  // Pair rate ∝ (intracavity power)² = enhancement².
  return enhancement * enhancement;
}

StabilityTrace StabilityExperiment::run_scheme(photonics::PumpLocking locking,
                                               std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  const double lw =
      device_.linewidth_hz(photonics::itu_anchor_hz, photonics::Polarization::TE);
  const double thermal_rate =
      device_.thermal_shift_hz_per_K(photonics::itu_anchor_hz, photonics::Polarization::TE);

  rng::OrnsteinUhlenbeck temperature(0.0, cfg_.temperature_tau_s, cfg_.temperature_rms_K,
                                     0.0);

  StabilityTrace trace;
  const auto n = static_cast<std::size_t>(observation_s(cfg_) / cfg_.sample_interval_s);
  trace.time_s.reserve(n);
  trace.relative_rate.reserve(n);

  double sum = 0, sum2 = 0, mn = 1e300, mx = -1e300;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * cfg_.sample_interval_s;
    const double dT = temperature.step(g, cfg_.sample_interval_s);

    double detuning_hz;
    if (locking == photonics::PumpLocking::SelfLocked) {
      // The system lases on the loop mode nearest the (drifting) ring
      // resonance: the residual detuning is the fold of the drift into the
      // loop-mode grid, plus lasing-line jitter.
      const double resonance = photonics::itu_anchor_hz + thermal_rate * dT;
      detuning_hz =
          cfg_.loop.lasing_detuning_hz(resonance) +
          rng::sample_normal(g, 0.0, cfg_.self_locked_residual_fraction * lw);
    } else {
      // External laser fixed at the cold resonance; the resonance walks
      // away thermally.
      detuning_hz = thermal_rate * dT;
    }

    const double rate = relative_rate_at_detuning(detuning_hz);
    trace.time_s.push_back(t);
    trace.relative_rate.push_back(rate);
    sum += rate;
    sum2 += rate * rate;
    mn = std::min(mn, rate);
    mx = std::max(mx, rate);
  }

  const double mean = sum / static_cast<double>(n);
  const double var = std::max(0.0, sum2 / static_cast<double>(n) - mean * mean);
  trace.mean = mean;
  trace.rms_fluctuation_percent = mean > 0 ? 100.0 * std::sqrt(var) / mean : 0.0;
  trace.peak_to_peak_percent = mean > 0 ? 100.0 * (mx - mn) / mean : 0.0;
  return trace;
}

CountedStabilityTrace StabilityExperiment::run_counted_scheme(
    photonics::PumpLocking locking, double mean_coincidence_rate_hz) {
  if (mean_coincidence_rate_hz <= 0)
    throw std::invalid_argument("run_counted_scheme: mean rate <= 0");

  CountedStabilityTrace out;
  out.trace = run_scheme(locking, locking == photonics::PumpLocking::SelfLocked
                                      ? cfg_.seed
                                      : cfg_.seed + 1);
  const std::size_t n = out.trace.relative_rate.size();
  if (n == 0) return out;

  // Ideal collection chain: unit efficiency/transmission, no darks, no
  // jitter or dead time — every generated pair is one coincidence
  // candidate, so the segment pair rate IS the drifting coincidence rate.
  detect::ChannelPairSpec spec;
  spec.emission = detect::EmissionMode::PiecewiseRates;
  spec.linewidth_hz =
      device_.linewidth_hz(photonics::itu_anchor_hz, photonics::Polarization::TE);
  spec.detector_signal.efficiency = 1.0;
  spec.detector_signal.dark_rate_hz = 0.0;
  spec.detector_signal.jitter_sigma_s = 0.0;
  spec.detector_signal.dead_time_s = 0.0;
  spec.detector_idler = spec.detector_signal;

  // The signal-idler Laplace delay scale is 1/(2π δν) ~ ns; a window many
  // delay scales wide loses a negligible fraction of true pairs, while
  // accidentals at Hz-level rates are vanishing.
  const double window_s = 40e-9;
  // One piecewise schedule covering the whole observation: the drifting
  // relative-rate trace becomes the segment pair rates, and the windowed
  // streaming engine generates it one sample interval at a time, so click
  // memory stays bounded by the busiest interval even for multi-week runs.
  spec.segments.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    detect::RateSegment seg;
    seg.duration_s = cfg_.sample_interval_s;
    seg.pair_rate_hz = mean_coincidence_rate_hz * out.trace.relative_rate[i];
    spec.segments.push_back(seg);
  }

  detect::EngineConfig ec;
  ec.duration_s = static_cast<double>(n) * cfg_.sample_interval_s;
  ec.seed = cfg_.seed + 77 +
            (locking == photonics::PumpLocking::SelfLocked ? 0 : 1);
  detect::StreamConfig sc;
  sc.window_s = cfg_.sample_interval_s;
  detect::EventStreamer streamer(ec, sc, {spec});
  detect::StreamingAllanAccumulator allan(window_s, cfg_.sample_interval_s);
  detect::StreamWindow w;
  while (streamer.next(w)) allan.push(w);

  detect::StreamingAllanResult res = allan.finish();
  out.counts = std::move(res.counts);
  out.mean_counts = res.mean_counts;
  out.allan = std::move(res.allan);
  return out;
}

StabilityComparison StabilityExperiment::run() {
  StabilityComparison cmp;
  cmp.self_locked = run_scheme(photonics::PumpLocking::SelfLocked, cfg_.seed);
  cmp.external = run_scheme(photonics::PumpLocking::ExternalFixed, cfg_.seed + 1);
  return cmp;
}

}  // namespace qfc::core
