#include "qfc/core/qkd_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "qfc/detect/streaming.hpp"
#include "qfc/obs/obs.hpp"

namespace qfc::core {

QkdNetworkConfig QkdNetworkConfig::uniform(std::size_t num_users,
                                           double max_distance_km,
                                           UserEndpointParams endpoint,
                                           fiber::FiberParams fiber) {
  if (!(max_distance_km >= 0))
    throw std::invalid_argument("QkdNetworkConfig::uniform: negative distance");
  QkdNetworkConfig cfg;
  cfg.users.reserve(num_users);
  for (std::size_t u = 0; u < num_users; ++u) {
    QkdUserSpec user;
    user.endpoint = endpoint;
    user.link.fiber = fiber;
    user.link.distance_km =
        num_users > 1
            ? max_distance_km * static_cast<double>(u) /
                  static_cast<double>(num_users - 1)
            : 0.0;
    cfg.users.push_back(user);
  }
  return cfg;
}

void QkdNetworkConfig::validate(int num_channel_pairs) const {
  io::check_fields(*this, "QkdNetworkConfig");
  if (analysis_threads < 0)
    throw std::invalid_argument("QkdNetworkConfig.analysis_threads: must be >= 0");

  for (std::size_t u = 0; u < users.size(); ++u) {
    const QkdUserSpec& user = users[u];
    try {
      user.endpoint.validate();
      user.link.validate();
      io::check_fields(user, "QkdUserSpec");
      if (user.channel_pair < 0 || user.channel_pair > num_channel_pairs)
        throw std::invalid_argument("QkdUserSpec.channel_pair: must be in [0, " +
                                    std::to_string(num_channel_pairs) +
                                    "] (0 = auto; the experiment has " +
                                    std::to_string(num_channel_pairs) + " pairs)");
      if (user.endpoint.coincidence_window_s !=
          users.front().endpoint.coincidence_window_s)
        throw std::invalid_argument(
            "UserEndpointParams.coincidence_window_s: differs from user 0's; the shared "
            "streaming accumulator sweeps every channel with one window");
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("user " + std::to_string(u) + ": " + e.what());
    }
  }
}

QkdNetwork::QkdNetwork(const TimebinExperiment& experiment, QkdNetworkConfig config)
    : experiment_(&experiment), cfg_(std::move(config)) {
  const int num_pairs = experiment_->config().num_channel_pairs;
  cfg_.validate(num_pairs);
  assigned_.reserve(cfg_.users.size());
  for (std::size_t u = 0; u < cfg_.users.size(); ++u) {
    const QkdUserSpec& user = cfg_.users[u];
    assigned_.push_back(user.channel_pair != 0
                            ? user.channel_pair
                            : static_cast<int>(u % static_cast<std::size_t>(
                                                       num_pairs)) +
                                  1);
  }
}

std::vector<detect::ChannelPairSpec> QkdNetwork::engine_specs() const {
  std::vector<detect::ChannelPairSpec> specs;
  specs.reserve(cfg_.users.size());
  std::vector<int> comb_bin;
  comb_bin.reserve(cfg_.users.size());
  std::vector<double> leakage;
  leakage.reserve(cfg_.users.size());
  for (std::size_t u = 0; u < cfg_.users.size(); ++u) {
    const QkdUserSpec& user = cfg_.users[u];
    specs.push_back(link_channel_spec(*experiment_, assigned_[u], user.endpoint,
                                      user.link));
    comb_bin.push_back(assigned_[u]);
    leakage.push_back(user.crosstalk_leakage);
  }
  detect::apply_adjacent_crosstalk(specs, comb_bin, leakage);
  return specs;
}

QkdNetworkReport QkdNetwork::run(double duration_s) const {
  if (duration_s <= 0)
    throw std::invalid_argument("QkdNetwork::run: duration <= 0");

  const std::size_t n = cfg_.users.size();
  QFC_OBS_SPAN("network.run", {{"users", n}});
  obs::counter("network.runs").increment();
  obs::gauge("network.users").set(static_cast<long long>(n));

  QkdNetworkReport report;
  report.duration_s = duration_s;
  report.worst_qber = std::numeric_limits<double>::quiet_NaN();
  if (n == 0) return report;  // degenerate: nothing to stream

  // ---- one shared streaming pass over every user's channel
  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = cfg_.seed;
  detect::StreamConfig sc;
  sc.window_s = cfg_.stream_window_s;

  const double window = cfg_.users.front().endpoint.coincidence_window_s;
  detect::EventStreamer streamer(ec, sc, engine_specs());
  detect::StreamingCarPairsAccumulator car(
      window, /*side_window_spacing_s=*/std::max(100e-9, 20.0 * window),
      /*num_side_windows=*/10);

  long long peak_rss = 0;
  detect::StreamWindow w;
  {
    QFC_OBS_SPAN("network.stream", {{"users", n}});
    while (streamer.next(w)) {
      car.push(w);
      ++report.stream_windows;
      obs::counter("network.windows").increment();
      obs::counter("network.events")
          .add(w.events.signal.size() + w.events.idler.size());
      const long long rss = obs::current_rss_kb();
      peak_rss = std::max(peak_rss, rss);
      obs::gauge("network.rss_kb").set(rss);
    }
  }
  report.peak_rss_kb = peak_rss;
  const std::vector<detect::CarResult> cars = car.finish();

  // ---- per-user reports: each reads only its own channel pair's CAR.
  report.users.reserve(n);
  {
    QFC_OBS_SPAN("network.reports", {{"users", n}});
    for (std::size_t u = 0; u < n; ++u) {
      const QkdUserSpec& user = cfg_.users[u];
      QkdUserReport r;
      r.user = u;
      r.channel_pair = assigned_[u];
      r.distance_km = user.link.distance_km;
      r.car = cars.at(u);
      const double total = r.car.coincidences;
      const double true_c = std::max(0.0, r.car.coincidences - r.car.accidentals);
      const double v_intrinsic = intrinsic_visibility(*experiment_, assigned_[u], user.link);
      r.visibility = total > 0 ? v_intrinsic * true_c / total : 0.0;
      r.qber = total > 0 ? qber_from_visibility(r.visibility)
                         : std::numeric_limits<double>::quiet_NaN();
      r.sifted_rate_hz = user.endpoint.sifting_factor * total / duration_s;
      r.secret_fraction = total > 0 ? bbm92_secret_fraction(r.qber) : 0.0;
      r.secret_key_rate_bps = r.sifted_rate_hz * r.secret_fraction;
      r.key_positive = r.secret_key_rate_bps > 0;
      report.users.push_back(r);
    }
  }

  // ---- aggregates, accumulated serially in user order (deterministic).
  double max_distance = 0;
  // Users without coincidences have no QBER (NaN) and stay out of the
  // QBER aggregates.
  for (const QkdUserReport& r : report.users) {
    if (r.key_positive) {
      report.total_key_rate_bps += r.secret_key_rate_bps;
      ++report.users_with_key;
    }
    if (std::isnan(r.qber))
      ++report.users_no_data;
    else
      report.worst_qber = std::isnan(report.worst_qber)
                              ? r.qber
                              : std::max(report.worst_qber, r.qber);
    max_distance = std::max(max_distance, r.distance_km);
  }

  const std::size_t num_bins =
      static_cast<std::size_t>(max_distance / cfg_.histogram_bin_km) + 1;
  report.distance_histogram.assign(num_bins, DistanceBinStat{});
  for (std::size_t b = 0; b < num_bins; ++b) {
    report.distance_histogram[b].lo_km =
        static_cast<double>(b) * cfg_.histogram_bin_km;
    report.distance_histogram[b].hi_km =
        static_cast<double>(b + 1) * cfg_.histogram_bin_km;
  }
  std::vector<std::size_t> with_data(num_bins, 0);  // users with a QBER, per bin
  for (const QkdUserReport& r : report.users) {
    const std::size_t b = std::min(
        num_bins - 1,
        static_cast<std::size_t>(r.distance_km / cfg_.histogram_bin_km));
    DistanceBinStat& bin = report.distance_histogram[b];
    ++bin.users;
    if (r.key_positive) {
      ++bin.users_with_key;
      bin.total_key_rate_bps += r.secret_key_rate_bps;
    }
    if (!std::isnan(r.qber)) {
      ++with_data[b];
      bin.mean_qber += r.qber;  // sum for now; divided below
    }
  }
  for (std::size_t b = 0; b < num_bins; ++b) {
    DistanceBinStat& bin = report.distance_histogram[b];
    if (with_data[b] > 0)
      bin.mean_qber /= static_cast<double>(with_data[b]);
    else if (bin.users > 0)
      bin.mean_qber = std::numeric_limits<double>::quiet_NaN();
  }

  obs::gauge("network.users_with_key")
      .set(static_cast<long long>(report.users_with_key));
  return report;
}

}  // namespace qfc::core
