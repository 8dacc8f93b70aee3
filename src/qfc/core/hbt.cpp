#include "qfc/core/hbt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::core {

namespace {

/// g²_h(0) = N_h12 N_h / (N_h1 N_h2) with a Poisson error on the triples.
void finalize_g2(HbtResult& r) {
  if (r.coincidences_1 > 0 && r.coincidences_2 > 0 && r.heralds > 0) {
    r.g2 = static_cast<double>(r.triples) * static_cast<double>(r.heralds) /
           (static_cast<double>(r.coincidences_1) * static_cast<double>(r.coincidences_2));
    if (r.triples > 0)
      r.g2_err = r.g2 / std::sqrt(static_cast<double>(r.triples));
    else
      r.g2_err = r.g2;  // only an upper bound exists
  }
}

}  // namespace

HbtResult run_hbt(const HbtParams& p, rng::Xoshiro256& g) {
  p.validate();
  HbtResult r;

  for (std::uint64_t t = 0; t < p.trials; ++t) {
    const std::uint64_t n = rng::sample_thermal(g, p.mean_pairs_per_trial);

    // Herald: any of n idler photons, or a dark count.
    bool herald = rng::sample_bernoulli(g, p.dark_probability);
    for (std::uint64_t i = 0; i < n && !herald; ++i)
      herald = rng::sample_bernoulli(g, p.herald_efficiency);
    if (!herald) continue;
    ++r.heralds;

    // Signal photons: each detected with signal_efficiency, then routed
    // 50/50; darks can also fire either detector.
    bool d1 = rng::sample_bernoulli(g, p.dark_probability);
    bool d2 = rng::sample_bernoulli(g, p.dark_probability);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!rng::sample_bernoulli(g, p.signal_efficiency)) continue;
      if (rng::sample_bernoulli(g, 0.5))
        d1 = true;
      else
        d2 = true;
    }
    if (d1) ++r.coincidences_1;
    if (d2) ++r.coincidences_2;
    if (d1 && d2) ++r.triples;
  }

  finalize_g2(r);
  return r;
}

HbtResult run_hbt_time_domain(const HbtStreamParams& p) {
  p.validate();

  detect::ChannelPairSpec spec;
  spec.pair_rate_hz = p.pair_rate_hz;
  spec.linewidth_hz = p.linewidth_hz;
  detect::DetectorParams sig_det;
  sig_det.efficiency = p.signal_efficiency;
  // Darks belong to the two physical detectors *after* the splitter; the
  // engine's signal column models only the shared pre-splitter arm.
  sig_det.dark_rate_hz = 0.0;
  sig_det.jitter_sigma_s = 0.0;
  sig_det.dead_time_s = 0.0;
  detect::DetectorParams herald_det = sig_det;
  herald_det.efficiency = p.herald_efficiency;
  herald_det.dark_rate_hz = p.dark_rate_hz;  // single physical detector
  spec.detector_signal = sig_det;
  spec.detector_idler = herald_det;

  detect::EngineConfig ec;
  ec.duration_s = p.duration_s;
  ec.seed = p.seed;
  const detect::EngineResult events = detect::EventEngine(ec).run({spec});

  const std::vector<double> herald = events.idler.channel_clicks(0);
  // 50/50 beam splitter on the signal column, then independent darks at
  // the configured per-detector rate on each output.
  rng::Xoshiro256 g(p.seed ^ 0x5050505050505050ULL);
  std::vector<double> d1, d2;
  for (const double t : events.signal.channel_clicks(0))
    (rng::sample_bernoulli(g, 0.5) ? d1 : d2).push_back(t);
  if (p.dark_rate_hz > 0) {
    for (auto* d : {&d1, &d2}) {
      const auto darks =
          detect::generate_poisson_arrivals(p.dark_rate_hz, p.duration_s, g);
      std::vector<double> merged(d->size() + darks.size());
      std::merge(d->begin(), d->end(), darks.begin(), darks.end(), merged.begin());
      d->swap(merged);
    }
  }

  HbtResult r;
  r.heralds = herald.size();
  r.coincidences_1 = detect::count_coincidences(herald, d1, p.coincidence_window_s);
  r.coincidences_2 = detect::count_coincidences(herald, d2, p.coincidence_window_s);

  // Triples: heralds with a click on both splitter outputs inside the window.
  const double half = p.coincidence_window_s / 2.0;
  std::size_t lo1 = 0, lo2 = 0;
  for (const double th : herald) {
    while (lo1 < d1.size() && d1[lo1] < th - half) ++lo1;
    while (lo2 < d2.size() && d2[lo2] < th - half) ++lo2;
    const bool hit1 = lo1 < d1.size() && d1[lo1] <= th + half;
    const bool hit2 = lo2 < d2.size() && d2[lo2] <= th + half;
    if (hit1 && hit2) ++r.triples;
  }
  finalize_g2(r);
  return r;
}

double analytic_heralded_g2(const HbtParams& p) {
  return quantum::TwoModeSqueezedVacuum(p.mean_pairs_per_trial)
      .heralded_g2(p.herald_efficiency);
}

}  // namespace qfc::core
