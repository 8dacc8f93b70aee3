/// \file probes.cpp
/// Layer probes of the traced run. Each builds the inputs one scenario
/// instance would build (through the same façades and defaults as the
/// registry adapters in src/qfc/sweep/scenarios.cpp) and then times the
/// calls into one layer's public functions from outside.

#include <algorithm>
#include <complex>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/detect/analysis_sweep.hpp"
#include "qfc/detect/streaming.hpp"
#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/rng/distributions.hpp"

namespace perfbench {

namespace {

using qfc::io::Json;

/// Reads a scenario parameter object the way the adapters do: absent keys
/// take the façade default. Keys the probe does not model are an error, so
/// a workload change cannot silently make a probe diverge from its
/// instance.
class Params {
 public:
  Params(const Json& p, const char* scenario, std::initializer_list<std::string_view> known)
      : p_(p) {
    for (const auto& [key, value] : p.object_members())
      if (std::find(known.begin(), known.end(), key) == known.end())
        throw std::invalid_argument(std::string("perfbench: the ") + scenario +
                                    " probe does not model parameter '" + key + "'");
  }
  double num(const char* key, double fallback) const {
    const Json* v = p_.find(key);
    return v != nullptr ? v->number_value() : fallback;
  }
  int integer(const char* key, int fallback) const {
    const Json* v = p_.find(key);
    return v != nullptr ? static_cast<int>(v->int_value()) : fallback;
  }
  std::uint64_t seed(std::uint64_t fallback) const {
    const Json* v = p_.find("seed");
    return v != nullptr ? static_cast<std::uint64_t>(v->int_value()) : fallback;
  }

 private:
  const Json& p_;
};

/// Accumulates the wall time of scoped calls.
class Stopwatch {
 public:
  explicit Stopwatch(double& total) : total_(total), t0_(Clock::now()) {}
  ~Stopwatch() { total_ += seconds_between(t0_, Clock::now()); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double& total_;
  Clock::time_point t0_;
};

/// The qkd_network adapter's network, built from its parameter object.
struct Network {
  qfc::core::TimebinExperiment experiment;
  qfc::core::QkdNetworkConfig config;
  double duration_s;
};

Network network_from(const Json& params) {
  const Params p(params, "qkd_network",
                 {"num_users", "max_distance_km", "duration_s", "stream_window_s",
                  "histogram_bin_km", "seed", "coincidence_window_s", "dark_rate_hz",
                  "sifting_factor", "detection_efficiency_scale"});
  auto comb = qfc::core::QuantumFrequencyComb::for_configuration(
      qfc::core::PumpConfiguration::DoublePulse);
  qfc::core::UserEndpointParams ep;
  ep.coincidence_window_s = p.num("coincidence_window_s", ep.coincidence_window_s);
  ep.dark_rate_hz = p.num("dark_rate_hz", ep.dark_rate_hz);
  ep.sifting_factor = p.num("sifting_factor", ep.sifting_factor);
  ep.detection_efficiency_scale =
      p.num("detection_efficiency_scale", ep.detection_efficiency_scale);
  Network n{comb.timebin_default(),
            qfc::core::QkdNetworkConfig::uniform(
                static_cast<std::size_t>(p.integer("num_users", 1)),
                p.num("max_distance_km", 50.0), ep),
            p.num("duration_s", 1.0)};
  n.config.stream_window_s = p.num("stream_window_s", n.config.stream_window_s);
  n.config.histogram_bin_km = p.num("histogram_bin_km", n.config.histogram_bin_km);
  n.config.seed = p.seed(n.config.seed);
  n.config.analysis_threads = 1;  // as the adapter
  return n;
}

}  // namespace

TomoProbe probe_tomo(const Json& params) {
  const Params p(params, "four_photon",
                 {"pair_a", "pair_b", "fringe_points", "fourfold_events_per_point",
                  "tomo_shots_per_setting", "seed"});
  qfc::core::FourPhotonConfig cfg;
  cfg.pair_a = p.integer("pair_a", cfg.pair_a);
  cfg.pair_b = p.integer("pair_b", cfg.pair_b);
  cfg.fringe_points = p.integer("fringe_points", cfg.fringe_points);
  cfg.fourfold_events_per_point =
      p.num("fourfold_events_per_point", cfg.fourfold_events_per_point);
  cfg.tomo_shots_per_setting = p.num("tomo_shots_per_setting", cfg.tomo_shots_per_setting);
  cfg.seed = p.seed(cfg.seed);
  const auto comb = qfc::core::QuantumFrequencyComb::for_configuration(
      qfc::core::PumpConfiguration::DoublePulseFourMode);
  const auto rho4 = comb.four_photon(cfg).true_state();
  const auto rho_a = rho4.partial_trace_keep({0, 1});
  const auto rho_b = rho4.partial_trace_keep({2, 3});

  TomoProbe out;
  qfc::rng::Xoshiro256 g(cfg.seed);
  std::vector<qfc::tomo::SettingCounts> counts_a, counts_b, counts4;
  {
    QFC_OBS_SPAN("bench.tomo.simulate_counts");
    const Stopwatch sw(out.simulate_s);
    counts_a = qfc::tomo::simulate_counts(rho_a, cfg.tomo_shots_per_setting, cfg.tomo_noise, g);
    counts_b = qfc::tomo::simulate_counts(rho_b, cfg.tomo_shots_per_setting, cfg.tomo_noise, g);
    counts4 = qfc::tomo::simulate_counts(rho4, cfg.tomo_shots_per_setting, cfg.tomo_noise, g);
  }
  for (const auto* counts : {&counts_a, &counts_b}) {
    QFC_OBS_SPAN("bench.tomo.mle2");
    const Stopwatch sw(out.mle2_s);
    const auto mle = qfc::tomo::maximum_likelihood(*counts);
    out.iterations2 += mle.iterations;
    out.converged += mle.converged ? 1 : 0;
  }
  {
    QFC_OBS_SPAN("bench.tomo.mle4");
    const Stopwatch sw(out.mle4_s);
    const auto mle = qfc::tomo::maximum_likelihood(counts4);
    out.iterations4 = mle.iterations;
    out.converged += mle.converged ? 1 : 0;
  }
  return out;
}

LinalgProbe probe_linalg(std::uint64_t seed) {
  using qfc::linalg::CMat;
  constexpr std::size_t kDim = 16;
  qfc::rng::Xoshiro256 g(seed);
  const auto random_matrix = [&] {
    CMat m(kDim, kDim);
    for (std::size_t i = 0; i < kDim; ++i)
      for (std::size_t j = 0; j < kDim; ++j)
        m(i, j) = {qfc::rng::sample_normal(g, 0.0, 1.0), qfc::rng::sample_normal(g, 0.0, 1.0)};
    return m;
  };
  const CMat a = random_matrix();
  const CMat b = random_matrix();
  const CMat h = a + a.adjoint();

  // Median over batches of the per-call time, so one preempted batch does
  // not move the figure. The sink keeps the calls from being optimized out.
  const auto per_call_us = [](int batches, int calls, const auto& call) {
    std::vector<double> per_call;
    for (int k = 0; k < batches; ++k) {
      const auto t0 = Clock::now();
      for (int i = 0; i < calls; ++i) call();
      per_call.push_back(seconds_between(t0, Clock::now()) * 1e6 / calls);
    }
    return median(per_call);
  };
  double sink = 0;
  LinalgProbe out;
  {
    QFC_OBS_SPAN("bench.linalg.gemm16");
    out.gemm16_us = per_call_us(31, 200, [&] { sink += std::real((a * b)(3, 5)); });
  }
  {
    QFC_OBS_SPAN("bench.linalg.eig16");
    out.eig16_us = per_call_us(31, 10, [&] { sink += qfc::linalg::hermitian_eig(h).values[0]; });
  }
  [[maybe_unused]] volatile double keep = sink;
  return out;
}

StreamProbe probe_stream(const Json& params, int reps) {
  const Network n = network_from(params);
  const qfc::core::QkdNetwork network(n.experiment, n.config);
  const double window = n.config.users.front().endpoint.coincidence_window_s;

  std::vector<double> next_s, push_s, finish_s, run_s;
  StreamProbe out;
  for (int r = 0; r < reps; ++r) {
    // The pipeline QkdNetwork::run drives, with the same configs.
    qfc::detect::EngineConfig ec;
    ec.duration_s = n.duration_s;
    ec.seed = n.config.seed;
    ec.analysis_threads = n.config.analysis_threads;
    qfc::detect::StreamConfig sc;
    sc.window_s = n.config.stream_window_s;
    qfc::detect::EventStreamer streamer(ec, sc, network.engine_specs());
    qfc::detect::StreamingCarAccumulator car(window, std::max(100e-9, 20.0 * window), 10,
                                             n.config.analysis_threads);
    double next = 0, push = 0, finish = 0;
    std::uint64_t events = 0, windows = 0;
    long long rss_first = 0, rss_last = 0;
    qfc::detect::StreamWindow w;
    for (;;) {
      bool more = false;
      {
        QFC_OBS_SPAN("bench.detect.stream_next");
        const Stopwatch sw(next);
        more = streamer.next(w);
      }
      if (!more) break;
      {
        QFC_OBS_SPAN("bench.detect.car_push");
        const Stopwatch sw(push);
        car.push(w);
      }
      events += w.events.signal.size() + w.events.idler.size();
      rss_last = qfc::obs::current_rss_kb();
      if (++windows == 1) rss_first = rss_last;
    }
    {
      QFC_OBS_SPAN("bench.detect.car_finish");
      const Stopwatch sw(finish);
      car.finish();
    }
    next_s.push_back(next);
    push_s.push_back(push);
    finish_s.push_back(finish);
    if (r == 0) {
      out.events = events;
      out.windows = windows;
      out.boundary_violations = streamer.boundary_violations();
      out.rss_growth_kb = rss_last - rss_first;
    }

    double run = 0;
    {
      QFC_OBS_SPAN("bench.core.network_run");
      const Stopwatch sw(run);
      network.run(n.duration_s);
    }
    run_s.push_back(run);
  }
  out.next_s = median(next_s);
  out.push_s = median(push_s);
  out.finish_s = median(finish_s);
  out.network_run_s = median(run_s);
  return out;
}

SplitProbe probe_split(const Json& params) {
  namespace detect = qfc::detect;
  const Network n = network_from(params);
  const qfc::core::QkdNetwork network(n.experiment, n.config);
  const double duration = n.duration_s;
  qfc::rng::Xoshiro256 g(n.config.seed);

  SplitProbe out;
  std::vector<std::vector<double>> idler_columns;
  for (const detect::ChannelPairSpec& spec : network.engine_specs()) {
    detect::PairStreams arrivals;
    {
      QFC_OBS_SPAN("bench.detect.emit");
      const Stopwatch sw(out.emit_s);
      switch (spec.emission) {
        case detect::EmissionMode::Cw:
          arrivals = detect::generate_pair_arrivals(
              {spec.pair_rate_hz, spec.linewidth_hz, duration, spec.transmission_signal,
               spec.transmission_idler},
              g);
          break;
        case detect::EmissionMode::Pulsed:
          arrivals = detect::generate_pulsed_pair_arrivals(
              {spec.pulsed.repetition_rate_hz, spec.pulsed.mean_pairs_per_pulse,
               spec.pulsed.pulse_sigma_s, spec.pulsed.bin_separation_s,
               spec.pulsed.late_fraction, spec.linewidth_hz, duration,
               spec.transmission_signal, spec.transmission_idler},
              g);
          break;
        case detect::EmissionMode::PiecewiseRates:
          arrivals = detect::generate_piecewise_pair_arrivals(
              {spec.segments, spec.linewidth_hz, duration, spec.transmission_signal,
               spec.transmission_idler},
              g);
          break;
      }
      for (auto [arm, rate] : {std::pair{&arrivals.a, spec.background_rate_signal_hz},
                               std::pair{&arrivals.b, spec.background_rate_idler_hz}}) {
        const auto background = detect::generate_poisson_arrivals(rate, duration, g);
        arm->insert(arm->end(), background.begin(), background.end());
      }
    }
    {
      QFC_OBS_SPAN("bench.detect.detector");
      const Stopwatch sw(out.detector_s);
      detect::SinglePhotonDetector(spec.detector_signal).detect(arrivals.a, duration, g);
      idler_columns.push_back(
          detect::SinglePhotonDetector(spec.detector_idler).detect(arrivals.b, duration, g));
    }
  }
  const detect::EventTable idler = detect::EventTable::from_columns(std::move(idler_columns));
  {
    QFC_OBS_SPAN("bench.detect.merge");
    const Stopwatch sw(out.merge_s);
    detect::analysis_detail::merge_channels(idler);
  }
  return out;
}

BatchProbe probe_batch(const Json& params) {
  const Params p(params, "heralded_channel_table",
                 {"pump_power_w", "num_channel_pairs", "duration_s", "coincidence_window_s",
                  "side_window_spacing_s", "seed"});
  qfc::core::HeraldedConfig cfg;
  cfg.pump_power_w = p.num("pump_power_w", cfg.pump_power_w);
  cfg.num_channel_pairs = p.integer("num_channel_pairs", cfg.num_channel_pairs);
  cfg.duration_s = p.num("duration_s", cfg.duration_s);
  cfg.coincidence_window_s = p.num("coincidence_window_s", cfg.coincidence_window_s);
  cfg.side_window_spacing_s = p.num("side_window_spacing_s", cfg.side_window_spacing_s);
  cfg.seed = p.seed(cfg.seed);
  const auto comb = qfc::core::QuantumFrequencyComb::for_configuration(
      qfc::core::PumpConfiguration::SelfLockedCw);
  const auto experiment = comb.heralded(cfg);

  // The engine specs of HeraldedPhotonExperiment, from its public parts.
  std::vector<qfc::detect::ChannelPairSpec> specs;
  for (int k = 1; k <= cfg.num_channel_pairs; ++k) {
    const auto signal = cfg.channels.chain(k, 0);
    const auto idler = cfg.channels.chain(k, 1);
    qfc::detect::ChannelPairSpec spec;
    spec.pair_rate_hz = experiment.source().pair_rate_hz(k);
    spec.linewidth_hz = experiment.source().photon_linewidth_hz();
    spec.transmission_signal = signal.transmission;
    spec.transmission_idler = idler.transmission;
    spec.detector_signal = signal.detector;
    spec.detector_idler = idler.detector;
    specs.push_back(spec);
  }
  qfc::detect::EngineConfig ec;
  ec.duration_s = cfg.duration_s;
  ec.seed = cfg.seed;
  ec.num_threads = 1;  // as the adapter

  BatchProbe out;
  qfc::detect::EngineResult events;
  {
    QFC_OBS_SPAN("bench.detect.batch_run");
    const Stopwatch sw(out.run_s);
    events = qfc::detect::EventEngine(ec).run(specs);
  }
  {
    QFC_OBS_SPAN("bench.detect.car_matrix");
    const Stopwatch sw(out.car_matrix_s);
    qfc::detect::car_matrix(events.signal, events.idler, cfg.coincidence_window_s,
                            cfg.side_window_spacing_s);
  }
  return out;
}

}  // namespace perfbench
