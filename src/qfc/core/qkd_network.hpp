#pragma once

/// \file qkd_network.hpp
/// Many-user multiplexed QKD network on one comb — the "millions of users"
/// story the paper's introduction motivates: hundreds of comb lines paired
/// off to hundreds of independent users, each with their own fiber span,
/// detector/dark parameters, and sifting config, all simulated from **one
/// shared streaming engine run**.
///
/// Contracts inherited from the substrate (and pinned by
/// tests/test_qkd_network.cpp):
///
///  - **Bounded memory**: the network streams the whole user set through
///    detect::EventStreamer + an online CAR accumulator, so peak resident
///    memory is set by QkdNetworkConfig::stream_window_s — never by
///    user count × duration (bench_qkd_network gates this in CI via its
///    `bounded_rss` flag).
///  - **Bitwise thread-count determinism**: generation forks one RNG per
///    user-channel in user order; the CAR sweep is serial; per-user reports
///    are assembled serially in user order. Every number in
///    QkdNetworkReport is bitwise identical at every generation thread
///    count and stream window size.
///  - **Cross-talk compositionality**: adjacent-bin leakage is injected at
///    the spec level (detect::apply_adjacent_crosstalk) into the
///    background-rate path; zero leakage is an exact no-op, so a
///    leakage-free network reproduces the single-link stream checks
///    bit-for-bit.

#include <cstdint>
#include <vector>

#include "qfc/io/fields.hpp"

#include "qfc/core/qkd.hpp"
#include "qfc/core/timebin_experiment.hpp"
#include "qfc/detect/event_engine.hpp"

namespace qfc::core {

/// One subscriber: which comb line pair serves them, their measurement
/// station, their span, and how much of the neighboring bins' flux leaks
/// into their demultiplexer port.
struct QkdUserSpec {
  /// Comb channel pair serving this user (1-based, as everywhere in
  /// TimebinExperiment). 0 = assign automatically: users are dealt
  /// round-robin over the experiment's pairs in user order.
  int channel_pair = 0;
  UserEndpointParams endpoint;
  LinkGeometry link;
  /// Fraction of each adjacent bin's generated flux leaking into this
  /// user's channel (imperfect demux isolation), in [0, 1]. Folded into
  /// the spec-level background rates; 0 is an exact no-op.
  double crosstalk_leakage = 0.0;

  /// channel_pair is checked against the experiment by QkdNetworkConfig.
  QFC_FIELDS(QkdUserSpec,
      QFC_FIELD(crosstalk_leakage, io::kFraction, "adjacent-bin flux leaking in"))
};

struct QkdNetworkConfig {
  std::vector<QkdUserSpec> users;
  /// Streaming generation window: the resident-memory knob. Results are
  /// bitwise independent of it.
  double stream_window_s = 1.0;
  std::uint64_t seed = 1176;
  /// Inert: the CAR sweeps are serial. Kept, and still rejected when
  /// negative, only because the repository benchmark sets it.
  int analysis_threads = 0;
  /// Bin width of QkdNetworkReport::distance_histogram.
  double histogram_bin_km = 10.0;

  /// `num_users` users with identical endpoints and fiber recipe,
  /// distances spread evenly over [0, max_distance_km] in user order, and
  /// automatic channel assignment — the canonical scaling scenario.
  static QkdNetworkConfig uniform(std::size_t num_users, double max_distance_km,
                                  UserEndpointParams endpoint = {},
                                  fiber::FiberParams fiber = {});

  QFC_FIELDS(QkdNetworkConfig,
      QFC_FIELD(stream_window_s, io::kPositive, "streaming window (memory knob) [s]"),
      QFC_FIELD(seed, io::kNonNegative, "engine seed"),
      QFC_FIELD(histogram_bin_km, io::kPositive, "distance histogram bin [km]"))

  /// Validates the run knobs and every user spec; per-user errors are
  /// prefixed "user N: ". `num_channel_pairs` is the owning experiment's
  /// pair count (bounds the per-user channel_pair; 0 = auto assignment is
  /// always allowed). The QkdNetwork constructor calls this.
  void validate(int num_channel_pairs) const;
};

/// Measured (Monte-Carlo) per-user outcome of one network run.
struct QkdUserReport {
  std::size_t user = 0;
  int channel_pair = 0;    ///< resolved assignment (never 0)
  double distance_km = 0;
  detect::CarResult car;   ///< this user's diagonal CAR-matrix cell
  double visibility = 0;   ///< intrinsic visibility × measured true/total
  double qber = 0;         ///< NaN (JSON "nan") when the user saw no coincidences
  double sifted_rate_hz = 0;
  double secret_fraction = 0;
  double secret_key_rate_bps = 0;
  bool key_positive = false;

  QFC_JSON(QkdUserReport, user, channel_pair, distance_km, car, visibility, qber, sifted_rate_hz,
           secret_fraction, secret_key_rate_bps, key_positive)
};

/// One bin of the per-distance aggregate histogram: [lo_km, hi_km).
struct DistanceBinStat {
  double lo_km = 0;
  double hi_km = 0;
  std::size_t users = 0;
  std::size_t users_with_key = 0;
  double total_key_rate_bps = 0;
  /// Mean QBER over the bin's users with data; NaN when none of its users
  /// has data, 0 for an empty bin.
  double mean_qber = 0;

  QFC_JSON(DistanceBinStat, lo_km, hi_km, users, users_with_key, total_key_rate_bps, mean_qber)
};

struct QkdNetworkReport {
  double duration_s = 0;
  std::vector<QkdUserReport> users;
  // ---- network aggregates
  double total_key_rate_bps = 0;   ///< sum of positive per-user key rates
  double worst_qber = 0;           ///< max QBER over users with data; NaN if none
  std::size_t users_with_key = 0;
  std::size_t users_no_data = 0;   ///< users with zero coincidences (QBER NaN)
  std::vector<DistanceBinStat> distance_histogram;
  // ---- run diagnostics
  std::size_t stream_windows = 0;  ///< windows the shared run emitted

  /// Per-user array, aggregates, distance histogram. The run diagnostic
  /// follows the window size, not the physics, and stays out.
  QFC_JSON(QkdNetworkReport, duration_s, users, total_key_rate_bps, worst_qber,
           users_with_key, users_no_data, distance_histogram)
};

/// The network façade: binds a user list to one TimebinExperiment and runs
/// every user's link from a single shared streaming engine pass.
class QkdNetwork {
 public:
  /// Validates the whole config up front; errors name the offending user
  /// ("user 17: UserEndpointParams: negative dark rate"). All users must
  /// share one coincidence window — the shared online accumulator sweeps
  /// every channel with a single window.
  QkdNetwork(const TimebinExperiment& experiment, QkdNetworkConfig config);
  /// The network keeps a pointer to the experiment: a temporary would
  /// dangle.
  QkdNetwork(const TimebinExperiment&& experiment, QkdNetworkConfig config) = delete;

  const QkdNetworkConfig& config() const noexcept { return cfg_; }
  std::size_t num_users() const noexcept { return cfg_.users.size(); }

  /// The engine spec list one shared run consumes: user u is engine
  /// channel u (link_channel_spec of their assignment + endpoint +
  /// geometry), with adjacent-bin cross-talk folded into the background
  /// rates. Exposed so tests can pin the cross-talk injection and the
  /// zero-leakage no-op.
  std::vector<detect::ChannelPairSpec> engine_specs() const;

  /// One shared streaming run over all users: windowed generation, online
  /// CAR accumulation, then per-user reports and network aggregates. See
  /// the file comment for the determinism and bounded-memory contracts.
  QkdNetworkReport run(double duration_s) const;

 private:
  const TimebinExperiment* experiment_;
  QkdNetworkConfig cfg_;
  std::vector<int> assigned_;
};

}  // namespace qfc::core
