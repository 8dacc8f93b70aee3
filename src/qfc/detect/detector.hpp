#pragma once

/// \file detector.hpp
/// Single-photon detector model: quantum efficiency, Poissonian dark/
/// background counts, Gaussian timing jitter and dead time. This is the
/// simulated stand-in for the gated InGaAs detectors of refs [6]-[8].

#include <vector>

#include "qfc/rng/distributions.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::detect {

struct DetectorParams {
  /// Photon detection probability (includes fiber/filter losses if the
  /// caller folds them in; the experiment layer keeps them separate).
  double efficiency = 0.20;
  /// Dark + broadband-background click rate, Hz. Free-running InGaAs
  /// detectors with in-band background sit in the kHz range.
  double dark_rate_hz = 1000.0;
  /// Gaussian timing jitter (sigma), seconds.
  double jitter_sigma_s = 50e-12;
  /// Dead time after each click, seconds.
  double dead_time_s = 10e-6;

  void validate() const;
};

class SinglePhotonDetector {
 public:
  explicit SinglePhotonDetector(DetectorParams params);

  const DetectorParams& params() const noexcept { return params_; }

  /// Turn true photon arrival times (seconds, unsorted OK) into detector
  /// click timestamps over [0, duration): applies efficiency, adds dark
  /// counts, jitters, sorts, and applies dead time.
  std::vector<double> detect(const std::vector<double>& photon_arrivals_s,
                             double duration_s, rng::Xoshiro256& g) const;

  /// As detect(), but additionally merges caller-supplied dark click times
  /// (sorted, e.g. from a piecewise-rate schedule) into the stream before
  /// dead time. The extra darks click directly — no efficiency thinning,
  /// no jitter — exactly like the internal params().dark_rate_hz pass,
  /// which still runs and composes additively with them.
  std::vector<double> detect(const std::vector<double>& photon_arrivals_s,
                             const std::vector<double>& extra_dark_clicks_s,
                             double duration_s, rng::Xoshiro256& g) const;

  /// Core overload with split randomness: the photon pass (efficiency +
  /// jitter draws, via detect_photon_click) consumes `g_photon` and the
  /// internal dark-count pass consumes `g_dark`. The single-generator
  /// overloads alias one generator into both roles, which reproduces their
  /// historical draw sequence exactly (photon draws first, then darks); the
  /// engine and the streaming path pass two independent forked streams so
  /// the two passes can be windowed independently.
  std::vector<double> detect(const std::vector<double>& photon_arrivals_s,
                             const std::vector<double>& extra_dark_clicks_s,
                             double duration_s, rng::Xoshiro256& g_photon,
                             rng::Xoshiro256& g_dark) const;

 private:
  DetectorParams params_;
};

/// One photon arrival through the jitter-only front end: returns true (and
/// writes the click time) iff the arrival lies in [0, duration) and its
/// jittered timestamp does too. The per-arrival body of the event
/// streamer's detector pass, whose emission samplers have already thinned
/// every arrival by the detector efficiency (engine_plan.hpp). Expects a
/// validated jitter_sigma_s (>= 0, finite); draws one normal per arrival in
/// range.
inline bool jitter_click(double t_s, double jitter_sigma_s, double duration_s,
                         rng::Xoshiro256& g, double& click_out_s) {
  if (t_s < 0 || t_s >= duration_s) return false;
  const double jittered = t_s + rng::unchecked::normal(g, 0.0, jitter_sigma_s);
  if (jittered < 0 || jittered >= duration_s) return false;
  click_out_s = jittered;
  return true;
}

/// One photon arrival through the efficiency + jitter front end: an
/// efficiency Bernoulli, then jitter_click. The per-arrival body of
/// SinglePhotonDetector::detect, which takes unthinned photons; the event
/// streamer folds efficiency into emission instead and calls jitter_click
/// directly. Expects validated params. Arrivals outside [0, duration) draw
/// nothing, and the jitter draw happens only when the efficiency Bernoulli
/// succeeds.
inline bool detect_photon_click(double t_s, const DetectorParams& params,
                                double duration_s, rng::Xoshiro256& g,
                                double& click_out_s) {
  if (t_s < 0 || t_s >= duration_s) return false;
  if (!rng::unchecked::bernoulli(g, params.efficiency)) return false;
  return jitter_click(t_s, params.jitter_sigma_s, duration_s, g, click_out_s);
}

namespace detail {

/// Initial dead-time carry: no click yet.
constexpr double kNoClick = -1e18;

/// The one click-finalization pass of every detector run, batch or
/// windowed: sorts the pending photon clicks if needed, takes those below
/// `until_s` (erasing them from `pending`), merges them with the sorted
/// internal darks and then the sorted schedule darks (ties keep that
/// order), and drops clicks closer than `dead_time_s` to the previous kept
/// one. `dead_last_s` carries the last kept click across calls; start it at
/// kNoClick. The result replaces the contents of `clicks`, whose capacity is
/// reused, so a windowed caller that keeps `clicks` allocates nothing once
/// it has grown.
void finalize_clicks(std::vector<double>& pending, double until_s,
                     const std::vector<double>& darks,
                     const std::vector<double>& extra_darks, double dead_time_s,
                     double& dead_last_s, std::vector<double>& clicks);

}  // namespace detail

}  // namespace qfc::detect
