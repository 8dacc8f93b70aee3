// E14 (Sec. V design requirement): "the generated photons have the same
// bandwidth as the pump field" — heralded-photon spectral purity vs the
// pump-bandwidth / ring-linewidth ratio, plus the dispersion budget that
// sets the usable comb width per device.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/photonics/device_presets.hpp"
#include "qfc/photonics/dispersion.hpp"
#include "qfc/sfwm/jsa.hpp"

int main() {
  using namespace qfc;
  bench::header("E14 bench_purity_ablation",
                "Sec. V condition: photons with the same bandwidth as the pump "
                "-> separable JSA -> pure heralded photons / indistinguishable "
                "temporal modes for multi-photon states");

  const double lw = 820e6;  // entanglement device linewidth
  std::printf("ring linewidth: %.0f MHz (entanglement device)\n\n", lw / 1e6);
  std::printf("%22s %12s %16s %14s %18s\n", "pump BW / linewidth", "purity",
              "Schmidt number", "entropy (bit)", "photon BW / pump");

  const std::vector<double> ratios = {0.05, 0.1, 0.25, 0.5, 1.0,
                                      1.5,  2.0, 4.0,  8.0, 16.0};
  double purity_narrow = 1, purity_matched = 0, bw_ratio_matched = 0;
  bool purity_monotone = true;
  double prev_purity = 0;
  for (const double ratio : ratios) {
    sfwm::JsaParams p;
    p.pump_bandwidth_hz = ratio * lw;
    p.ring_linewidth_s_hz = lw;
    p.ring_linewidth_i_hz = lw;
    p.grid_points = 96;
    const auto r = sfwm::schmidt_decompose(sfwm::sample_jsa(p));
    const double photon_bw = sfwm::marginal_fwhm_hz(p);
    std::printf("%22.2f %12.3f %16.2f %14.3f %18.2f\n", ratio, r.purity,
                r.schmidt_number, r.entropy_bits, photon_bw / p.pump_bandwidth_hz);
    if (r.purity < prev_purity - 0.02) purity_monotone = false;
    prev_purity = r.purity;
    if (ratio == 0.05) purity_narrow = r.purity;
    if (ratio == 1.0) {
      purity_matched = r.purity;
      bw_ratio_matched = photon_bw / p.pump_bandwidth_hz;
    }
  }
  std::printf("\npurity rises toward separability with pump bandwidth, but the\n"
              "photon/pump bandwidth match (Sec. V indistinguishability condition)\n"
              "holds only near pump BW ≈ ring linewidth: there purity is already "
              "%.2f\nwith photon BW = %.2fx pump BW.\n",
              purity_matched, bw_ratio_matched);

  // Device dispersion budget: how many channel pairs stay phase-matched.
  std::printf("\nusable comb width (pairs with mismatch < linewidth/2):\n");
  struct Row {
    const char* name;
    photonics::MicroringResonator ring;
  } rows[] = {
      {"heralded (110 MHz)", photonics::heralded_source_device()},
      {"entanglement (820 MHz)", photonics::entanglement_device()},
      {"type-II (80 MHz)", photonics::type2_device()},
  };
  for (const auto& row : rows) {
    const auto prof =
        photonics::dispersion_profile(row.ring, photonics::itu_anchor_hz, 20);
    std::printf("%24s: D2 = %+8.0f kHz, phase-matched pairs >= %d\n", row.name,
                prof.d2_hz / 1e3,
                photonics::phase_matched_pair_count(row.ring, photonics::itu_anchor_hz,
                                                    60));
  }

  const bool ok = purity_monotone && purity_narrow < 0.6 && purity_matched > 0.8 &&
                  bw_ratio_matched > 0.5 && bw_ratio_matched < 2.0;
  bench::verdict(ok, "narrow pumps entangle the spectrum (low purity); at matched "
                     "bandwidth the photons are near-pure AND pump-matched — the "
                     "paper's temporal-mode indistinguishability condition");
  return ok ? 0 : 1;
}
