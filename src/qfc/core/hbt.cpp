#include "qfc/core/hbt.hpp"

#include <cmath>
#include <stdexcept>

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

double analytic_heralded_g2(const HbtParams& p) {
  return quantum::TwoModeSqueezedVacuum(p.mean_pairs_per_trial)
      .heralded_g2(p.herald_efficiency);
}

}  // namespace qfc::core
