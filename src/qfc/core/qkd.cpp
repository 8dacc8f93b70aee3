#include "qfc/core/qkd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "qfc/detect/streaming.hpp"
#include "qfc/photonics/constants.hpp"

namespace qfc::core {

double binary_entropy_bits(double p) {
  if (p < 0 || p > 1) throw std::invalid_argument("binary_entropy_bits: p outside [0,1]");
  if (p == 0 || p == 1) return 0.0;
  return -p * std::log2(p) - (1 - p) * std::log2(1 - p);
}

double qber_from_visibility(double visibility) {
  if (visibility < 0 || visibility > 1)
    throw std::invalid_argument("qber_from_visibility: V outside [0,1]");
  return (1.0 - visibility) / 2.0;
}

double bbm92_secret_fraction(double qber) {
  if (qber < 0 || qber > 0.5)
    throw std::invalid_argument("bbm92_secret_fraction: QBER outside [0,0.5]");
  return std::max(0.0, 1.0 - 2.0 * binary_entropy_bits(qber));
}

void LinkGeometry::validate() const {
  io::check_fields(*this, "LinkGeometry");
  fiber.validate();
}

fiber::FiberChannel LinkGeometry::arm_channel() const {
  validate();
  return fiber::FiberChannel(fiber::with_length_km(fiber, distance_km / 2.0));
}

double LinkGeometry::arm_transmission() const { return arm_channel().transmission(); }

double intrinsic_visibility(const TimebinExperiment& experiment, int k,
                            const LinkGeometry& geometry) {
  const fiber::FiberChannel arm = geometry.arm_channel();
  const auto noise = experiment.noise_model(k);
  const double v_state = timebin::state_visibility(noise);
  // Dispersion washes out time bins over long spans.
  const double wavelength = photonics::wavelength_from_frequency(
      experiment.source().grid().pair(k).signal.frequency_hz);
  const double linewidth = experiment.source().ring().linewidth_hz(
      experiment.config().pump.frequency_hz, photonics::Polarization::TE);
  const double disp_factor = arm.timebin_visibility_factor(
      wavelength, linewidth, experiment.config().pump.bin_separation_s);
  return v_state * disp_factor;
}

QkdChannelPerformance analytic_channel_performance(
    const TimebinExperiment& experiment, int k,
    const UserEndpointParams& endpoint, const LinkGeometry& geometry) {
  endpoint.validate();

  QkdChannelPerformance perf;
  perf.k = k;
  perf.distance_km = geometry.distance_km;

  // Symmetric spans: source in the middle.
  const fiber::FiberChannel arm = geometry.arm_channel();
  const double t_arm = arm.transmission();

  // Local (L = 0) performance from the experiment model.
  const double c0 = experiment.detected_coincidence_rate_hz(k);

  // Rates after fiber. detection_efficiency_scale multiplies the per-arm
  // efficiency, so coincidences pick up scale² and singles scale¹; at the
  // default 1.0 every product below is bitwise unchanged.
  const double scale = endpoint.detection_efficiency_scale;
  const double true_coincidences = c0 * t_arm * t_arm * scale * scale;
  const double pairs_per_s = experiment.source().mean_pairs_per_pulse(k) * 2.0 *
                             experiment.config().pump.train.repetition_rate_hz;
  const double eta = experiment.config().detection_efficiency_per_arm * scale;
  const double singles =
      pairs_per_s * eta * t_arm * 0.5 /* analyzer post-selection */ +
      endpoint.dark_rate_hz;
  const double accidentals = singles * singles * endpoint.coincidence_window_s;

  const double v_intrinsic = intrinsic_visibility(experiment, k, geometry);
  const double denom = true_coincidences + accidentals;
  perf.visibility =
      denom > 0 ? v_intrinsic * true_coincidences / denom : 0.0;
  perf.qber = qber_from_visibility(perf.visibility);
  perf.sifted_rate_hz = endpoint.sifting_factor * denom;
  perf.secret_fraction = bbm92_secret_fraction(perf.qber);
  perf.key_rate_bps = perf.sifted_rate_hz * perf.secret_fraction;
  perf.key_positive = perf.key_rate_bps > 0;
  return perf;
}

detect::ChannelPairSpec link_channel_spec(const TimebinExperiment& experiment,
                                          int k,
                                          const UserEndpointParams& endpoint,
                                          const LinkGeometry& geometry) {
  endpoint.validate();
  detect::ChannelPairSpec spec =
      experiment.cw_equivalent_spec(k, endpoint.dark_rate_hz);
  const double t_arm = geometry.arm_transmission();
  spec.transmission_signal = t_arm;
  spec.transmission_idler = t_arm;
  for (detect::DetectorParams* det : {&spec.detector_signal, &spec.detector_idler}) {
    det->jitter_sigma_s = endpoint.detector_jitter_sigma_s;
    det->dead_time_s = endpoint.detector_dead_time_s;
    det->efficiency *= endpoint.detection_efficiency_scale;
  }
  return spec;
}

MultiplexedQkdLink::MultiplexedQkdLink(const TimebinExperiment& experiment,
                                       UserEndpointParams endpoint,
                                       fiber::FiberParams fiber)
    : experiment_(&experiment), endpoint_(endpoint), fiber_(fiber) {
  endpoint_.validate();
  fiber_.validate();
}

QkdChannelPerformance MultiplexedQkdLink::channel_performance(int k,
                                                              double distance_km) const {
  return analytic_channel_performance(*experiment_, k, endpoint_,
                                      LinkGeometry{distance_km, fiber_});
}

std::vector<QkdChannelPerformance> MultiplexedQkdLink::all_channels(
    double distance_km) const {
  std::vector<QkdChannelPerformance> out;
  const int n = experiment_->config().num_channel_pairs;
  out.reserve(static_cast<std::size_t>(n));
  for (int k = 1; k <= n; ++k) out.push_back(channel_performance(k, distance_km));
  return out;
}

double MultiplexedQkdLink::aggregate_key_rate_bps(double distance_km) const {
  double total = 0;
  for (const auto& ch : all_channels(distance_km)) total += ch.key_rate_bps;
  return total;
}

std::vector<MultiplexedQkdLink::StreamCheck> MultiplexedQkdLink::stream_check(
    double distance_km, double duration_s, const StreamOptions& options) const {
  if (duration_s <= 0)
    throw std::invalid_argument("stream_check: duration <= 0");
  const LinkGeometry geometry{distance_km, fiber_};
  geometry.validate();

  const auto& cfg = experiment_->config();
  std::vector<detect::ChannelPairSpec> specs;
  specs.reserve(static_cast<std::size_t>(cfg.num_channel_pairs));
  for (int k = 1; k <= cfg.num_channel_pairs; ++k)
    specs.push_back(link_channel_spec(*experiment_, k, endpoint_, geometry));

  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = options.seed;
  detect::StreamConfig sc;
  // window <= 0: one window spanning the run — the old batch path. The
  // streaming engine is bitwise identical at every window size, so this
  // only changes peak memory.
  sc.window_s = options.window_s > 0 ? options.window_s : duration_s;

  const double window = endpoint_.coincidence_window_s;
  detect::EventStreamer streamer(ec, sc, specs);
  detect::StreamingCarPairsAccumulator car(
      window, /*side_window_spacing_s=*/std::max(100e-9, 20.0 * window),
      /*num_side_windows=*/10);
  detect::StreamWindow w;
  while (streamer.next(w)) car.push(w);
  const std::vector<detect::CarResult> cars = car.finish();

  std::vector<StreamCheck> out;
  out.reserve(specs.size());
  for (int k = 1; k <= cfg.num_channel_pairs; ++k) {
    const auto c = static_cast<std::size_t>(k - 1);
    StreamCheck r;
    r.k = k;
    r.car = cars.empty() ? detect::CarResult{} : cars[c];
    r.measured_coincidence_rate_hz =
        std::max(0.0, r.car.coincidences - r.car.accidentals) / duration_s;
    r.measured_accidental_rate_hz = r.car.accidentals / duration_s;
    out.push_back(r);
  }
  return out;
}

double MultiplexedQkdLink::max_distance_km(int k, double upper_bound_km,
                                           double tolerance_km) const {
  if (upper_bound_km <= 0)
    throw std::invalid_argument("max_distance_km: upper bound <= 0");
  if (tolerance_km <= 0)
    throw std::invalid_argument("max_distance_km: tolerance <= 0");
  double lo = 0, hi = upper_bound_km;
  if (!(channel_performance(k, lo).key_rate_bps > 0))
    return std::numeric_limits<double>::quiet_NaN();
  if (channel_performance(k, hi).key_rate_bps > 0) return hi;
  while (hi - lo > tolerance_km) {
    const double mid = (lo + hi) / 2;
    if (channel_performance(k, mid).key_rate_bps > 0)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace qfc::core
