#include "qfc/core/type2_experiment.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/detect/streaming.hpp"
#include "qfc/photonics/device_presets.hpp"

namespace qfc::core {

sfwm::Type2PairSource Type2Experiment::make_source(
    const photonics::MicroringResonator& device, double total_power_w, int num_pairs,
    sfwm::SfwmEfficiency eff) {
  photonics::CrossPolarizedPump pump;
  pump.power_te_w = total_power_w / 2.0;
  pump.power_tm_w = total_power_w / 2.0;
  pump.frequency_te_hz =
      device.nearest_resonance_hz(photonics::itu_anchor_hz, photonics::Polarization::TE);
  pump.frequency_tm_hz =
      device.nearest_resonance_hz(pump.frequency_te_hz, photonics::Polarization::TM);
  return sfwm::Type2PairSource(device, pump, num_pairs, eff);
}

void Type2Config::validate() const {
  io::check_fields(*this, "Type2Config");
  if (!(side_window_spacing_s > coincidence_window_s))
    throw std::invalid_argument(
        "Type2Config.side_window_spacing_s: must exceed the coincidence window");
}

Type2Experiment::Type2Experiment(photonics::MicroringResonator device, Type2Config cfg,
                                 sfwm::SfwmEfficiency eff)
    : device_(device),
      cfg_(cfg),
      eff_(eff),
      source_(make_source(device_, cfg_.pump_power_total_w, cfg_.num_channel_pairs, eff)) {
  cfg_.validate();
}

Type2CarResult Type2Experiment::measure_at(double total_power_w,
                                           std::uint64_t seed_offset) {
  const sfwm::Type2PairSource src =
      make_source(device_, total_power_w, cfg_.num_channel_pairs, eff_);

  // Channel pair k = 1 through the polarizing beam splitter.
  const ChannelChain te_chain = cfg_.channels.chain(1, 0);
  const ChannelChain tm_chain = cfg_.channels.chain(1, 1);
  const double leakage = std::pow(10.0, -cfg_.pbs_extinction_db / 10.0);

  detect::ChannelPairSpec spec;
  spec.pair_rate_hz = src.pair_rate_hz(1);
  spec.linewidth_hz = src.photon_linewidth_hz();
  spec.transmission_signal = te_chain.transmission * (1.0 - leakage);
  spec.transmission_idler = tm_chain.transmission * (1.0 - leakage);
  spec.detector_signal = te_chain.detector;
  spec.detector_idler = tm_chain.detector;

  detect::EngineConfig ec;
  ec.duration_s = cfg_.duration_s;
  ec.seed = cfg_.seed + seed_offset;
  detect::StreamingCarPairsAccumulator car(cfg_.coincidence_window_s,
                                           cfg_.side_window_spacing_s);
  detect::for_each_window(ec, {spec}, {}, &car);
  const std::vector<detect::CarResult> cars = car.finish();

  Type2CarResult r;
  r.pump_power_w = total_power_w;
  r.pair_rate_on_chip_hz = src.pair_rate_hz(1);
  r.car = cars.at(0);
  r.coincidence_rate_hz =
      std::max(0.0, r.car.coincidences - r.car.accidentals) / cfg_.duration_s;
  return r;
}

Type2CarResult Type2Experiment::run_car_measurement() {
  return measure_at(cfg_.pump_power_total_w, /*seed_offset=*/1);
}

std::vector<Type2CarResult> Type2Experiment::run_power_sweep(
    const std::vector<double>& powers_w) {
  std::vector<Type2CarResult> out;
  out.reserve(powers_w.size());
  std::uint64_t off = 100;
  for (double p : powers_w) out.push_back(measure_at(p, off++));
  return out;
}

std::vector<Type2Experiment::OpoPoint> Type2Experiment::run_opo_curve(
    double max_pump_w, int num_points) const {
  if (num_points < 2) throw std::invalid_argument("run_opo_curve: need >= 2 points");
  const sfwm::OpoModel opo(device_, eff_);
  std::vector<OpoPoint> out;
  out.reserve(static_cast<std::size_t>(num_points));
  for (int i = 0; i < num_points; ++i) {
    const double p = max_pump_w * static_cast<double>(i + 1) / num_points;
    out.push_back(OpoPoint{p, opo.output_power_w(p), opo.oscillating(p)});
  }
  return out;
}

double Type2Experiment::opo_threshold_w() const {
  return sfwm::OpoModel(device_, eff_).threshold_w();
}

double Type2Experiment::stimulated_suppression_db() const {
  return source_.stimulated_suppression_db();
}

}  // namespace qfc::core
