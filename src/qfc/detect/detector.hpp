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

  /// Expected singles rate for a given true photon rate (analytic; ignores
  /// dead-time saturation which is negligible at the rates simulated here).
  double expected_singles_rate_hz(double photon_rate_hz) const;

 private:
  DetectorParams params_;
};

/// One photon arrival through the efficiency + jitter front end: returns
/// true (and writes the click time) iff the photon is detected and its
/// jittered timestamp lands inside [0, duration). The per-arrival body of
/// SinglePhotonDetector::detect and of the event streamer's detector pass.
/// Note the jitter draw happens only when the efficiency Bernoulli
/// succeeds.
inline bool detect_photon_click(double t_s, const DetectorParams& params,
                                double duration_s, rng::Xoshiro256& g,
                                double& click_out_s) {
  if (t_s < 0 || t_s >= duration_s) return false;
  if (!rng::sample_bernoulli(g, params.efficiency)) return false;
  const double jittered = t_s + rng::sample_normal(g, 0.0, params.jitter_sigma_s);
  if (jittered < 0 || jittered >= duration_s) return false;
  click_out_s = jittered;
  return true;
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
/// kNoClick.
std::vector<double> finalize_clicks(std::vector<double>& pending, double until_s,
                                    const std::vector<double>& darks,
                                    const std::vector<double>& extra_darks,
                                    double dead_time_s, double& dead_last_s);

}  // namespace detail

}  // namespace qfc::detect
