#include "qfc/detect/detector.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "qfc/detect/event_stream.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::detect {

void DetectorParams::validate() const {
  if (efficiency < 0 || efficiency > 1)
    throw std::invalid_argument("DetectorParams: efficiency outside [0,1]");
  if (dark_rate_hz < 0) throw std::invalid_argument("DetectorParams: negative dark rate");
  if (jitter_sigma_s < 0) throw std::invalid_argument("DetectorParams: negative jitter");
  if (dead_time_s < 0) throw std::invalid_argument("DetectorParams: negative dead time");
}

SinglePhotonDetector::SinglePhotonDetector(DetectorParams params) : params_(params) {
  params_.validate();
}

std::vector<double> SinglePhotonDetector::detect(const std::vector<double>& arrivals,
                                                 double duration_s,
                                                 rng::Xoshiro256& g) const {
  static const std::vector<double> no_extra_darks;
  return detect(arrivals, no_extra_darks, duration_s, g);
}

std::vector<double> SinglePhotonDetector::detect(const std::vector<double>& arrivals,
                                                 const std::vector<double>& extra_darks,
                                                 double duration_s,
                                                 rng::Xoshiro256& g) const {
  // Aliasing one generator into both roles reproduces the historical draw
  // order exactly: photon-pass draws first, dark-pass draws after.
  return detect(arrivals, extra_darks, duration_s, g, g);
}

std::vector<double> SinglePhotonDetector::detect(const std::vector<double>& arrivals,
                                                 const std::vector<double>& extra_darks,
                                                 double duration_s,
                                                 rng::Xoshiro256& g_photon,
                                                 rng::Xoshiro256& g_dark) const {
  if (duration_s <= 0) throw std::invalid_argument("detect: duration <= 0");
  if (!std::is_sorted(extra_darks.begin(), extra_darks.end()))
    throw std::invalid_argument("detect: extra dark clicks unsorted");

  std::vector<double> clicks;
  clicks.reserve(arrivals.size() / 4 + 16);
  for (double t : arrivals) {
    double click;
    if (detect_photon_click(t, params_, duration_s, g_photon, click))
      clicks.push_back(click);
  }
  const std::vector<double> darks =
      generate_poisson_arrivals(params_.dark_rate_hz, duration_s, g_dark);
  double dead_last = detail::kNoClick;
  return detail::finalize_clicks(clicks, std::numeric_limits<double>::infinity(), darks,
                                 extra_darks, params_.dead_time_s, dead_last);
}

namespace detail {

std::vector<double> finalize_clicks(std::vector<double>& pending, double until_s,
                                    const std::vector<double>& darks,
                                    const std::vector<double>& extra_darks,
                                    double dead_time_s, double& dead_last_s) {
  // Photon clicks are nearly sorted already (jitter is tiny vs typical
  // arrival spacing), so the is_sorted probe usually skips the sort.
  if (!std::is_sorted(pending.begin(), pending.end()))
    std::sort(pending.begin(), pending.end());
  const auto split = std::lower_bound(pending.begin(), pending.end(), until_s);

  // Darks are generated in time order, so linear merges replace
  // concatenate-and-resort; on ties photon clicks come first, then the
  // internal darks, then the schedule darks.
  std::vector<double> clicks(static_cast<std::size_t>(split - pending.begin()) +
                             darks.size());
  std::merge(pending.begin(), split, darks.begin(), darks.end(), clicks.begin());
  pending.erase(pending.begin(), split);
  if (!extra_darks.empty()) {
    std::vector<double> merged(clicks.size() + extra_darks.size());
    std::merge(clicks.begin(), clicks.end(), extra_darks.begin(), extra_darks.end(),
               merged.begin());
    clicks.swap(merged);
  }
  if (obs::metrics_enabled() && !(darks.empty() && extra_darks.empty()))
    obs::counter("detect.darks_injected").add(darks.size() + extra_darks.size());

  // Dead time: drop clicks closer than dead_time_s to the previous kept one.
  if (dead_time_s > 0) {
    std::size_t kept = 0;
    for (double t : clicks) {
      if (t - dead_last_s >= dead_time_s) {
        clicks[kept++] = t;
        dead_last_s = t;
      }
    }
    clicks.resize(kept);
  }
  return clicks;
}

}  // namespace detail

double SinglePhotonDetector::expected_singles_rate_hz(double photon_rate_hz) const {
  if (photon_rate_hz < 0)
    throw std::invalid_argument("expected_singles_rate_hz: negative rate");
  return photon_rate_hz * params_.efficiency + params_.dark_rate_hz;
}

}  // namespace qfc::detect
