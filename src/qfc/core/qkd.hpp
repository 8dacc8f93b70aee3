#pragma once

/// \file qkd.hpp
/// Entanglement-based quantum key distribution (BBM92 with time-bin
/// qubits) over the comb's multiplexed channel pairs — the "secure
/// communications" application the paper's introduction motivates. The
/// source sits between Alice and Bob; each comb channel pair forms an
/// independent key-distribution link, so the aggregate key rate scales
/// with the number of multiplexed channels.
///
/// Vocabulary (shared with qkd_network.hpp): a *user endpoint*
/// (UserEndpointParams) is everything a receiving party owns — coincidence
/// window, dark rate, sifting, detector overrides — while the *link
/// geometry* (LinkGeometry) is everything the glass owns — the Alice–Bob
/// distance and the fiber recipe. MultiplexedQkdLink binds one endpoint to
/// one experiment and sweeps geometries; QkdNetwork binds hundreds of
/// (endpoint, geometry) pairs to one shared streaming engine run.

#include <cstdint>
#include <vector>

#include "qfc/io/fields.hpp"

#include "qfc/core/timebin_experiment.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/fiber/fiber_channel.hpp"

namespace qfc::core {

/// Binary entropy h₂(p), bits.
double binary_entropy_bits(double p);

/// Time-bin BBM92: fringe visibility V maps to QBER = (1 − V)/2.
double qber_from_visibility(double visibility);

/// Asymptotic secret fraction for BBM92 with one-way error correction:
/// r = max(0, 1 − 2 h₂(Q)). Positive only below Q ≈ 11%.
double bbm92_secret_fraction(double qber);

/// Receiving-party parameters: everything one user's measurement station
/// owns, reused verbatim by the single link and by every QkdNetwork user.
struct UserEndpointParams {
  /// Coincidence window used for pairing Alice's and Bob's detections.
  double coincidence_window_s = 1e-9;
  /// Per-detector dark/background rate at Alice and Bob.
  double dark_rate_hz = 1000.0;
  /// Basis-sifting factor (Z/X chosen with equal probability).
  double sifting_factor = 0.5;
  /// Detector timing jitter (1σ) applied in Monte-Carlo checks; the
  /// default matches TimebinExperiment::cw_equivalent_spec.
  double detector_jitter_sigma_s = 100e-12;
  /// Detector dead time applied in Monte-Carlo checks.
  double detector_dead_time_s = 0.0;
  /// Multiplies the experiment's per-arm detection efficiency (a user with
  /// older SNSPDs sets < 1). 1.0 leaves the experiment value untouched.
  double detection_efficiency_scale = 1.0;

  QFC_FIELDS(UserEndpointParams,
      QFC_FIELD(coincidence_window_s, io::kPositive, "Alice-Bob pairing window [s]"),
      QFC_FIELD(dark_rate_hz, io::kNonNegative, "per-detector dark rate [Hz]"),
      QFC_FIELD(sifting_factor, io::kEfficiency, "basis-sifting factor"),
      QFC_FIELD(detector_jitter_sigma_s, io::kNonNegative,
                "detector timing jitter, 1 sigma (Monte-Carlo only) [s]"),
      QFC_FIELD(detector_dead_time_s, io::kNonNegative,
                "detector dead time (Monte-Carlo only) [s]"),
      QFC_FIELD(detection_efficiency_scale, io::kEfficiency, "endpoint efficiency multiplier"))

  /// Throws std::invalid_argument("UserEndpointParams.dark_rate_hz: must be
  /// >= 0").
  void validate() const { io::check_fields(*this, "UserEndpointParams"); }
};

/// Glass-side parameters of one Alice–Bob link: total separation and the
/// fiber recipe. Spans are symmetric (source in the middle), so each arm
/// travels distance_km / 2 of `fiber`.
struct LinkGeometry {
  double distance_km = 0.0;
  fiber::FiberParams fiber;  ///< length_m is ignored; the arm span sets it

  QFC_FIELDS(LinkGeometry,
      QFC_FIELD(distance_km, io::kNonNegative, "total Alice-Bob separation [km]"))

  /// Throws std::invalid_argument for a negative distance or invalid fiber.
  void validate() const;

  /// One arm's fiber channel (length distance_km / 2).
  fiber::FiberChannel arm_channel() const;
  /// Power transmission of one arm.
  double arm_transmission() const;
};

struct QkdChannelPerformance {
  int k = 0;
  double distance_km = 0;        ///< total Alice-Bob separation
  double visibility = 0;         ///< after fiber + accidental degradation
  double qber = 0;
  double sifted_rate_hz = 0;
  double secret_fraction = 0;
  double key_rate_bps = 0;
  bool key_positive = false;

  QFC_JSON(QkdChannelPerformance, k, distance_km, visibility, qber, sifted_rate_hz, secret_fraction,
           key_rate_bps, key_positive)
};

/// Intrinsic (accidental-free) time-bin visibility of channel pair k over
/// `geometry`: the experiment's state visibility degraded by fiber
/// dispersion washout, before the accidental floor divides it down. Both
/// the analytic link budget and QkdNetwork's measured per-user reports
/// scale by this factor.
double intrinsic_visibility(const TimebinExperiment& experiment, int k,
                            const LinkGeometry& geometry);

/// Analytic BBM92 link budget for comb channel pair k of `experiment` over
/// `geometry`, measured by `endpoint`: state visibility degraded by fiber
/// dispersion and the accidental floor, QBER, sifted and secret-key rates.
/// The shared arithmetic behind MultiplexedQkdLink::channel_performance
/// and QkdNetwork's per-user analytic summaries.
QkdChannelPerformance analytic_channel_performance(
    const TimebinExperiment& experiment, int k,
    const UserEndpointParams& endpoint, const LinkGeometry& geometry);

/// Monte-Carlo channel spec for the same link: cw_equivalent_spec with the
/// arm transmission folded into both arms and the endpoint's dark rate and
/// detector overrides applied. Shared by the link's stream_check and
/// QkdNetwork's shared-engine spec planning.
detect::ChannelPairSpec link_channel_spec(const TimebinExperiment& experiment,
                                          int k,
                                          const UserEndpointParams& endpoint,
                                          const LinkGeometry& geometry);

/// Knobs of a Monte-Carlo stream check that are about the *run*, not the
/// link: generation window (memory bound) and seed. The window is
/// result-neutral — the streaming engine is bitwise identical to a batch
/// run at every window size.
struct StreamOptions {
  /// Streaming generation window; resident memory scales with this, not
  /// with duration. <= 0 means one window spanning the whole run (the old
  /// batch behavior — same bits either way).
  double window_s = 1.0;
  std::uint64_t seed = 1176;
};

/// QKD link built on a time-bin entanglement experiment: channel pair k
/// distributes photons to Alice (+k) and Bob (−k) through symmetric fiber
/// spans of length distance/2 each.
class MultiplexedQkdLink {
 public:
  MultiplexedQkdLink(const TimebinExperiment& experiment,
                     UserEndpointParams endpoint = {},
                     fiber::FiberParams fiber = {});
  /// The link keeps a pointer to the experiment: a temporary would dangle.
  MultiplexedQkdLink(const TimebinExperiment&& experiment, UserEndpointParams endpoint = {},
                     fiber::FiberParams fiber = {}) = delete;

  const UserEndpointParams& endpoint() const noexcept { return endpoint_; }
  const fiber::FiberParams& fiber() const noexcept { return fiber_; }

  QkdChannelPerformance channel_performance(int k, double distance_km) const;

  std::vector<QkdChannelPerformance> all_channels(double distance_km) const;

  /// Sum of positive per-channel key rates — the multiplexing payoff.
  double aggregate_key_rate_bps(double distance_km) const;

  /// Largest distance (km) at which channel k still yields a positive key
  /// rate, bisected to `tolerance_km`. Returns NaN when no positive-key
  /// distance exists (the channel is dead even back-to-back), and
  /// `upper_bound_km` itself when the key is still positive there — raise
  /// the bound to resolve further.
  double max_distance_km(int k, double upper_bound_km = 500.0,
                         double tolerance_km = 0.1) const;

  /// One channel of the Monte-Carlo link check (see stream_check).
  struct StreamCheck {
    int k = 0;
    double measured_coincidence_rate_hz = 0;  ///< accidental-subtracted
    double measured_accidental_rate_hz = 0;   ///< per peak-equivalent window
    detect::CarResult car;

    QFC_JSON(StreamCheck, k, measured_coincidence_rate_hz, measured_accidental_rate_hz, car)
  };

  /// Monte-Carlo cross-check of the analytic link budget: every channel
  /// pair runs through the windowed streaming engine
  /// (detect::EventStreamer) with the fiber arm transmission folded into
  /// each arm and the endpoint's dark rate on each detector, and an online
  /// accumulator measures all CARs in one pass. Resident memory is set by
  /// StreamOptions::window_s — not duration — while every reported number
  /// is bitwise identical at any window size (streaming parity contract). Validates the accidental floor the
  /// analytic channel_performance assumes.
  std::vector<StreamCheck> stream_check(double distance_km, double duration_s,
                                        const StreamOptions& options = {}) const;

 private:
  const TimebinExperiment* experiment_;
  UserEndpointParams endpoint_;
  fiber::FiberParams fiber_;
};

}  // namespace qfc::core
