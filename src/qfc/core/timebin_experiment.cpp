#include "qfc/core/timebin_experiment.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/detect/streaming.hpp"
#include "qfc/photonics/device_presets.hpp"

namespace qfc::core {

photonics::DoublePulsePump TimebinConfig::make_default_pump(
    const photonics::MicroringResonator& device, double average_power_w) {
  photonics::DoublePulsePump pump;
  pump.frequency_hz = photonics::pump_resonance_hz(device);
  // Spectrally filtered to one resonance: transform-limited pulse whose
  // bandwidth equals the ring linewidth.
  const double lw = device.linewidth_hz(pump.frequency_hz, photonics::Polarization::TE);
  pump.train.pulse_fwhm_s = 2.0 * std::log(2.0) / (photonics::pi * lw);
  pump.train.repetition_rate_hz = 16.8e6;
  pump.train.average_power_w = average_power_w;
  // Time bins well separated from both the pulse and the photon coherence
  // time, small vs the repetition period.
  pump.bin_separation_s = 5.0 * pump.train.pulse_fwhm_s;
  pump.pump_phase_rad = 0.0;
  return pump;
}

void TimebinConfig::validate() const {
  pump.validate();
  io::check_fields(*this, "TimebinConfig");
}

TimebinExperiment::TimebinExperiment(photonics::MicroringResonator device,
                                     TimebinConfig cfg, sfwm::SfwmEfficiency eff)
    : device_(device), cfg_(cfg), source_(device_, cfg_.pump, cfg_.num_channel_pairs, eff) {
  cfg_.validate();
}

timebin::TimebinNoiseModel TimebinExperiment::noise_model(int k) const {
  timebin::TimebinNoiseModel m;
  // Both bins together carry twice the per-pulse mean.
  m.mean_pairs_per_double_pulse = 2.0 * source_.mean_pairs_per_pulse(k);
  m.phase_noise_rms_rad = cfg_.interferometer_phase_noise_rms_rad;
  m.accidental_fraction = cfg_.accidental_fraction;
  return m;
}

double TimebinExperiment::detected_coincidence_rate_hz(int k) const {
  const double pairs_per_s =
      source_.mean_pairs_per_pulse(k) * 2.0 * cfg_.pump.train.repetition_rate_hz;
  const double eta2 = cfg_.detection_efficiency_per_arm * cfg_.detection_efficiency_per_arm;
  // Post-selection keeps 1/4 of pairs in the middle|middle slot pattern
  // per analyzer pair (each photon: 1/2 in the middle slot).
  return pairs_per_s * eta2 * 0.25;
}

TimebinChannelResult TimebinExperiment::run_channel(int k) {
  if (k < 1 || k > cfg_.num_channel_pairs)
    throw std::out_of_range("TimebinExperiment::run_channel: bad channel");

  rng::Xoshiro256 g(cfg_.seed + static_cast<std::uint64_t>(k) * 7919);

  TimebinChannelResult r;
  r.k = k;
  const timebin::TimebinNoiseModel m = noise_model(k);
  r.mu_per_double_pulse = m.mean_pairs_per_double_pulse;
  r.predicted_visibility = timebin::predicted_visibility(m);

  const quantum::DensityMatrix rho = timebin::noisy_pair_state(m, cfg_.pump.pump_phase_rad);

  // Detected pairs contributing per fringe point. The coincidence
  // probability inside simulate_fringe already includes the 1/16 analyzer
  // post-selection, so feed it the pre-analyzer detected-pair number.
  const double detected_pairs_per_point =
      source_.mean_pairs_per_pulse(k) * 2.0 * cfg_.pump.train.repetition_rate_hz *
      cfg_.integration_s_per_point * cfg_.detection_efficiency_per_arm *
      cfg_.detection_efficiency_per_arm;
  const double accidental_floor = detected_pairs_per_point / 16.0 *
                                  m.accidental_fraction / (1.0 - m.accidental_fraction);

  r.scan = timebin::simulate_fringe(rho, detected_pairs_per_point, accidental_floor,
                                    cfg_.fringe_points, cfg_.pump.bin_separation_s,
                                    /*fixed_phase_rad=*/0.0, g);
  r.fringe_fit = detect::fit_sinusoid(r.scan.phase_rad, r.scan.counts);

  const timebin::ChshSettings settings =
      timebin::optimal_settings_for_phi(cfg_.pump.pump_phase_rad);
  // Per-setting statistics: same integration time per setting combination;
  // measure_chsh wants post-selected pairs, so apply the 1/16 here.
  const double pairs_per_setting = detected_pairs_per_point / 16.0;
  r.chsh = timebin::measure_chsh(rho, settings, pairs_per_setting,
                                 accidental_floor / 4.0, g);
  return r;
}

detect::ChannelPairSpec TimebinExperiment::cw_equivalent_spec(int k,
                                                              double dark_rate_hz) const {
  detect::DetectorParams det;
  det.efficiency = cfg_.detection_efficiency_per_arm;
  det.dark_rate_hz = dark_rate_hz;
  det.jitter_sigma_s = 100e-12;
  det.dead_time_s = 0.0;

  detect::ChannelPairSpec spec;
  // Both bins together: twice the per-pulse mean, at the repetition rate.
  spec.pair_rate_hz =
      source_.mean_pairs_per_pulse(k) * 2.0 * cfg_.pump.train.repetition_rate_hz;
  spec.linewidth_hz =
      device_.linewidth_hz(cfg_.pump.frequency_hz, photonics::Polarization::TE);
  spec.detector_signal = det;
  spec.detector_idler = det;
  return spec;
}

std::vector<detect::CarResult> TimebinExperiment::run_car_check(double duration_s,
                                                                double dark_rate_hz,
                                                                double window_s) const {
  std::vector<detect::ChannelPairSpec> specs;
  specs.reserve(static_cast<std::size_t>(cfg_.num_channel_pairs));
  for (int k = 1; k <= cfg_.num_channel_pairs; ++k)
    specs.push_back(cw_equivalent_spec(k, dark_rate_hz));

  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = cfg_.seed + 4242;
  detect::StreamingCarPairsAccumulator car(window_s, /*side_window_spacing_s=*/100e-9);
  detect::for_each_window(ec, std::move(specs),
                          [&](const detect::StreamWindow& w) { car.push(w); });
  return car.finish();
}

detect::ChannelPairSpec TimebinExperiment::pulsed_spec(int k, double dark_rate_hz) const {
  detect::ChannelPairSpec spec = cw_equivalent_spec(k, dark_rate_hz);
  spec.pair_rate_hz = 0;  // the pulse train carries the rate
  spec.emission = detect::EmissionMode::Pulsed;
  spec.pulsed.repetition_rate_hz = cfg_.pump.train.repetition_rate_hz;
  // Both bins together: twice the per-pulse mean per repetition period.
  spec.pulsed.mean_pairs_per_pulse = 2.0 * source_.mean_pairs_per_pulse(k);
  spec.pulsed.bin_separation_s = cfg_.pump.bin_separation_s;
  // Pairs are born over the pulse envelope: intensity FWHM -> 1σ.
  spec.pulsed.pulse_sigma_s =
      cfg_.pump.train.pulse_fwhm_s / (2.0 * std::sqrt(2.0 * std::log(2.0)));
  return spec;
}

std::vector<TimebinExperiment::PulsedClickCheck> TimebinExperiment::run_pulsed_car_check(
    double duration_s, double dark_rate_hz, double window_s) const {
  std::vector<detect::ChannelPairSpec> specs;
  specs.reserve(static_cast<std::size_t>(cfg_.num_channel_pairs));
  for (int k = 1; k <= cfg_.num_channel_pairs; ++k)
    specs.push_back(pulsed_spec(k, dark_rate_hz));

  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = cfg_.seed + 8484;

  // Accidental windows at multiples of the repetition period: for a
  // pulsed source the only physical accidental estimate is a neighboring
  // pulse slot, not an arbitrary CW offset.
  const double period = 1.0 / cfg_.pump.train.repetition_rate_hz;
  detect::StreamingCarPairsAccumulator car(window_s, period);
  // Δt histogram fine enough to resolve the early/late peak triplet.
  const double dt_bins = cfg_.pump.bin_separation_s;
  detect::StreamingCorrelatorAccumulator corr(/*bin_width_s=*/dt_bins / 16.0,
                                              /*range_s=*/1.5 * dt_bins);
  detect::for_each_window(ec, std::move(specs), [&](const detect::StreamWindow& w) {
    car.push(w);
    corr.push(w);
  });
  const std::vector<detect::CarResult> cars = car.finish();
  const auto hists = corr.finish();

  std::vector<PulsedClickCheck> out;
  out.reserve(static_cast<std::size_t>(cfg_.num_channel_pairs));
  for (int k = 1; k <= cfg_.num_channel_pairs; ++k) {
    const auto c = static_cast<std::size_t>(k - 1);
    PulsedClickCheck check;
    check.car = cars.at(c);
    check.histogram = hists[c];
    check.peaks =
        timebin::fold_timebin_peaks(hists[c], dt_bins, /*half_window_s=*/dt_bins / 4.0);
    out.push_back(std::move(check));
  }
  return out;
}

std::vector<TimebinChannelResult> TimebinExperiment::run_all_channels() {
  std::vector<TimebinChannelResult> out;
  out.reserve(static_cast<std::size_t>(cfg_.num_channel_pairs));
  for (int k = 1; k <= cfg_.num_channel_pairs; ++k) out.push_back(run_channel(k));
  return out;
}

}  // namespace qfc::core
