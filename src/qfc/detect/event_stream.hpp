#pragma once

/// \file event_stream.hpp
/// Monte-Carlo generation of correlated photon arrival-time streams for
/// the three pair-emission models of the engine: CW (Poissonian pair
/// emission), pulsed (pair times locked to a pulse train, optionally
/// double-pulsed into early/late time bins), and piecewise-constant rate
/// schedules (drifting sources). All share the two-sided exponential
/// signal-idler delay (the Fourier pair of the Lorentzian resonance) and
/// per-arm channel transmission. Detector imperfections are applied
/// separately by SinglePhotonDetector.
///
/// Transmission is applied by thinning the pair clock: only pairs with at
/// least one transmitted photon are drawn, at rate × (1 - (1-T_a)(1-T_b)),
/// and one draw picks which arms they reach. The output has the law of
/// drawing every pair and dropping each photon with probability 1 - T; the
/// draw sequence of a seed is that of the thinned clock.
///
/// Each generator drains the mode's resumable sampler
/// (emission_samplers.hpp), the same one the windowed engine advances per
/// window (streaming.hpp); multi-channel callers should use the engine
/// rather than looping here.

#include <vector>

#include "qfc/rng/xoshiro.hpp"

namespace qfc::detect {

struct PairStreamParams {
  double pair_rate_hz = 0;      ///< on-chip generated pair rate
  double linewidth_hz = 0;      ///< Lorentzian FWHM of both photons
  double duration_s = 0;        ///< experiment duration
  double transmission_a = 1.0;  ///< channel transmission, signal arm
  double transmission_b = 1.0;  ///< channel transmission, idler arm

  void validate() const;
};

struct PairStreams {
  std::vector<double> a;  ///< photon arrival times, signal arm (sorted)
  std::vector<double> b;  ///< photon arrival times, idler arm (sorted)
};

/// Generate correlated arrival streams. The signal-idler delay is Laplace
/// distributed with scale 1/(2π δν), matching the cavity-SFWM cross-
/// correlation G²(τ) ∝ exp(−2π δν |τ|).
PairStreams generate_pair_arrivals(const PairStreamParams& p, rng::Xoshiro256& g);

/// Generate an *uncorrelated* photon stream (e.g. leaked pump, fluorescence)
/// at the given rate.
std::vector<double> generate_poisson_arrivals(double rate_hz, double duration_s,
                                              rng::Xoshiro256& g);

/// Pulse-train-locked pair emission (Sec. IV double-pulse pumping). Each
/// repetition period emits a Poisson number of pairs with mean
/// `mean_pairs_per_pulse`; each pair's emission time sits on the pulse
/// (Gaussian envelope jitter `pulse_sigma_s`), optionally displaced into
/// the late time bin by `bin_separation_s` with probability
/// `late_fraction` — so early/late bins are physical at the click level.
struct PulsedStreamParams {
  double repetition_rate_hz = 0;   ///< pump pulse repetition rate
  double mean_pairs_per_pulse = 0; ///< mean pair number per repetition period
  double pulse_sigma_s = 0;        ///< Gaussian emission-time jitter (1σ)
  double bin_separation_s = 0;     ///< 0 = single pulse; > 0 = early/late bins
  double late_fraction = 0.5;      ///< probability a pair is born in the late bin
  double linewidth_hz = 0;         ///< Lorentzian FWHM of both photons
  double duration_s = 0;           ///< experiment duration
  double transmission_a = 1.0;     ///< channel transmission, signal arm
  double transmission_b = 1.0;     ///< channel transmission, idler arm

  void validate() const;
};

PairStreams generate_pulsed_pair_arrivals(const PulsedStreamParams& p,
                                          rng::Xoshiro256& g);

/// One segment of a piecewise-constant emission schedule for a drifting
/// source. Segments are consecutive starting at t = 0; the schedule must
/// cover the full stream duration.
struct RateSegment {
  double duration_s = 0;                  ///< length of this segment
  double pair_rate_hz = 0;                ///< on-chip pair rate in this segment
  double background_rate_signal_hz = 0;   ///< extra in-band background, signal arm
  double background_rate_idler_hz = 0;    ///< extra in-band background, idler arm
  double dark_rate_signal_hz = 0;         ///< extra dark clicks, signal detector
  double dark_rate_idler_hz = 0;          ///< extra dark clicks, idler detector
};

/// Pair emission with a piecewise-constant rate (RateSegment::pair_rate_hz
/// drives each segment); delay/transmission semantics as the CW kernel.
struct PiecewiseStreamParams {
  std::vector<RateSegment> segments;
  double linewidth_hz = 0;      ///< Lorentzian FWHM of both photons
  double duration_s = 0;        ///< experiment duration (segments must cover it)
  double transmission_a = 1.0;  ///< channel transmission, signal arm
  double transmission_b = 1.0;  ///< channel transmission, idler arm

  void validate() const;
};

PairStreams generate_piecewise_pair_arrivals(const PiecewiseStreamParams& p,
                                             rng::Xoshiro256& g);

}  // namespace qfc::detect
