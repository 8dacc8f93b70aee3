#include "qfc/core/heralded.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qfc/detect/fit.hpp"
#include "qfc/detect/streaming.hpp"
#include "qfc/photonics/device_presets.hpp"

namespace qfc::core {

namespace {

photonics::CwPump make_pump(const photonics::MicroringResonator& device,
                            const HeraldedConfig& cfg) {
  photonics::CwPump pump;
  pump.power_w = cfg.pump_power_w;
  pump.frequency_hz = photonics::pump_resonance_hz(device);
  pump.locking = photonics::PumpLocking::SelfLocked;
  return pump;
}

}  // namespace

void HeraldedConfig::validate() const {
  io::check_fields(*this, "HeraldedConfig");
  if (!(side_window_spacing_s > coincidence_window_s))
    throw std::invalid_argument(
        "HeraldedConfig.side_window_spacing_s: must exceed the coincidence window");
  if (engine_threads < 0)
    throw std::invalid_argument("HeraldedConfig.engine_threads: must be >= 0");
}

HeraldedPhotonExperiment::HeraldedPhotonExperiment(photonics::MicroringResonator device,
                                                   HeraldedConfig cfg,
                                                   sfwm::SfwmEfficiency eff)
    : device_(device),
      cfg_(cfg),
      source_(device_, make_pump(device_, cfg_), cfg_.num_channel_pairs, eff) {
  cfg_.validate();
}

detect::ChannelPairSpec HeraldedPhotonExperiment::channel_spec(int k) const {
  const ChannelChain sig_chain = cfg_.channels.chain(k, 0);
  const ChannelChain idl_chain = cfg_.channels.chain(k, 1);

  detect::ChannelPairSpec spec;
  spec.pair_rate_hz = source_.pair_rate_hz(k);
  spec.linewidth_hz = source_.photon_linewidth_hz();
  spec.transmission_signal = sig_chain.transmission;
  spec.transmission_idler = idl_chain.transmission;
  spec.detector_signal = sig_chain.detector;
  spec.detector_idler = idl_chain.detector;
  return spec;
}

void HeraldedPhotonExperiment::stream_events(
    std::vector<detect::ChannelPairSpec> specs, double duration_s, std::uint64_t seed,
    const std::function<void(const detect::StreamWindow&)>& on_window,
    detect::DiagonalAccumulator* diagonal) const {
  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = seed;
  ec.num_threads = cfg_.engine_threads;
  detect::for_each_window(ec, std::move(specs), on_window, diagonal);
}

std::vector<detect::ChannelPairSpec> HeraldedPhotonExperiment::all_channel_specs() const {
  std::vector<detect::ChannelPairSpec> specs;
  specs.reserve(static_cast<std::size_t>(cfg_.num_channel_pairs));
  for (int k = 1; k <= cfg_.num_channel_pairs; ++k) specs.push_back(channel_spec(k));
  return specs;
}

std::vector<MatrixCell> HeraldedPhotonExperiment::run_coincidence_matrix() {
  detect::StreamingCarAccumulator car(cfg_.coincidence_window_s, cfg_.side_window_spacing_s);
  stream_events(all_channel_specs(), cfg_.duration_s, cfg_.seed + 1,
                [&](const detect::StreamWindow& w) { car.push(w); });
  const detect::CarMatrix matrix = car.finish();

  std::vector<MatrixCell> cells;
  const int n = cfg_.num_channel_pairs;
  cells.reserve(static_cast<std::size_t>(n * n));
  for (int si = 1; si <= n; ++si) {
    for (int ii = 1; ii <= n; ++ii) {
      MatrixCell cell;
      cell.signal_k = si;
      cell.idler_k = ii;
      cell.car = matrix.at(static_cast<std::size_t>(si - 1),
                           static_cast<std::size_t>(ii - 1));
      cells.push_back(cell);
    }
  }
  return cells;
}

std::vector<ChannelResult> HeraldedPhotonExperiment::run_channel_table() {
  const auto n = static_cast<std::size_t>(cfg_.num_channel_pairs);
  detect::StreamingCarPairsAccumulator car(cfg_.coincidence_window_s,
                                           cfg_.side_window_spacing_s);
  std::vector<std::size_t> singles_signal(n, 0), singles_idler(n, 0);
  stream_events(
      all_channel_specs(), cfg_.duration_s, cfg_.seed + 2,
      [&](const detect::StreamWindow& w) {
        for (std::size_t c = 0; c < n; ++c) {
          singles_signal[c] += w.events.signal.channel_size(c);
          singles_idler[c] += w.events.idler.channel_size(c);
        }
      },
      &car);
  const std::vector<detect::CarResult> cars = car.finish();

  std::vector<ChannelResult> out;
  for (std::size_t c = 0; c < n; ++c) {
    const detect::CarResult& car_cell = cars.at(c);

    ChannelResult r;
    r.k = static_cast<int>(c) + 1;
    // Net pair rate: subtract the accidental floor from the peak window.
    r.coincidence_rate_hz =
        std::max(0.0, car_cell.coincidences - car_cell.accidentals) / cfg_.duration_s;
    r.car = car_cell.car;
    r.car_err = car_cell.car_err;
    r.singles_signal_hz = static_cast<double>(singles_signal[c]) / cfg_.duration_s;
    r.singles_idler_hz = static_cast<double>(singles_idler[c]) / cfg_.duration_s;
    out.push_back(r);
  }
  return out;
}

CoherenceResult HeraldedPhotonExperiment::run_coherence_measurement(int k,
                                                                    double duration_s,
                                                                    double hist_bin_s,
                                                                    double hist_range_s) {
  if (k < 1 || k > cfg_.num_channel_pairs)
    throw std::out_of_range("run_coherence_measurement: bad channel");

  // Dedicated long acquisition for the time-resolved histogram: the same
  // spec + stream path as the multi-channel runs, restricted to channel k.
  detect::StreamingCorrelatorAccumulator corr(hist_bin_s, hist_range_s);
  stream_events({channel_spec(k)}, duration_s, cfg_.seed + 1000 + static_cast<std::uint64_t>(k),
                {}, &corr);

  CoherenceResult res;
  res.histogram = corr.finish()[0];
  res.ring_linewidth_hz = source_.photon_linewidth_hz();

  // Background-subtract the flat accidental floor (median of the outermost
  // bins), then fit the two-sided exponential.
  const auto& h = res.histogram;
  double floor = 0;
  const std::size_t edge = std::max<std::size_t>(4, h.counts.size() / 10);
  for (std::size_t i = 0; i < edge; ++i)
    floor += static_cast<double>(h.counts[i] + h.counts[h.counts.size() - 1 - i]);
  floor /= static_cast<double>(2 * edge);

  // Only fit bins that stand clearly above the floor: keeping bins of
  // floor-level Poisson noise (where only the positive fluctuations survive
  // subtraction) would bias the tail flat and stretch the fitted decay.
  double peak = 0;
  for (auto c : h.counts) peak = std::max(peak, static_cast<double>(c) - floor);
  const double threshold =
      std::max({5.0, 4.0 * std::sqrt(std::max(1.0, floor)), 0.02 * peak});

  std::vector<double> t, y;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double v = static_cast<double>(h.counts[i]) - floor;
    if (v > threshold) {
      t.push_back(h.bin_time(i));
      y.push_back(v);
    }
  }
  const detect::ExponentialFit fit = detect::fit_two_sided_exponential(t, y);
  res.fitted_tau_s = fit.tau_s;
  res.measured_linewidth_hz = detect::linewidth_from_decay_time(fit.tau_s);
  const double jitter = cfg_.channels.chain(k, 0).detector.jitter_sigma_s;
  const double tau_corr = detect::deconvolve_jitter(fit.tau_s, jitter);
  res.deconvolved_linewidth_hz = detect::linewidth_from_decay_time(tau_corr);
  return res;
}

}  // namespace qfc::core
