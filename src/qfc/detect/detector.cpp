#include "qfc/detect/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "qfc/detect/event_stream.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::detect {

void DetectorParams::validate() const {
  // Written so that NaN fails each check; rates and times must be finite.
  const auto non_negative = [](double x) { return std::isfinite(x) && x >= 0; };
  if (!(efficiency >= 0 && efficiency <= 1))
    throw std::invalid_argument("DetectorParams: efficiency outside [0,1]");
  if (!non_negative(dark_rate_hz))
    throw std::invalid_argument("DetectorParams: negative or non-finite dark rate");
  if (!non_negative(jitter_sigma_s))
    throw std::invalid_argument("DetectorParams: negative or non-finite jitter");
  if (!non_negative(dead_time_s))
    throw std::invalid_argument("DetectorParams: negative or non-finite dead time");
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
  std::vector<double> out;
  detail::finalize_clicks(clicks, std::numeric_limits<double>::infinity(), darks,
                          extra_darks, params_.dead_time_s, dead_last, out);
  return out;
}

namespace detail {

void finalize_clicks(std::vector<double>& pending, double until_s,
                     const std::vector<double>& darks,
                     const std::vector<double>& extra_darks, double dead_time_s,
                     double& dead_last_s, std::vector<double>& clicks) {
  // Photon clicks are nearly sorted already (jitter is tiny vs typical
  // arrival spacing), so the is_sorted probe usually skips the sort.
  if (!std::is_sorted(pending.begin(), pending.end()))
    std::sort(pending.begin(), pending.end());
  const auto split = std::lower_bound(pending.begin(), pending.end(), until_s);

  // Darks are generated in time order, so linear merges replace
  // concatenate-and-resort; on ties photon clicks come first, then the
  // internal darks, then the schedule darks.
  const std::size_t head = static_cast<std::size_t>(split - pending.begin()) + darks.size();
  clicks.resize(head + extra_darks.size());
  std::merge(pending.begin(), split, darks.begin(), darks.end(), clicks.begin());
  pending.erase(pending.begin(), split);
  // Schedule darks merge in from the back, in place: the write index never
  // passes the next unread head element.
  for (std::size_t i = head, j = extra_darks.size(), o = clicks.size(); j > 0;)
    clicks[--o] = (i > 0 && clicks[i - 1] > extra_darks[j - 1]) ? clicks[--i]
                                                                  : extra_darks[--j];
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
}

}  // namespace detail

}  // namespace qfc::detect
