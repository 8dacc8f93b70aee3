// Frequency-bin qudit walk-through: treat the comb's symmetric channel
// pairs as a d-level system (Kues et al. 2020), shape the bin amplitudes
// à la Maltese et al. 2019, certify the dimensionality with the Schmidt
// number witness, violate the CGLMP inequality, and reconstruct the state
// with MUB tomography.

#include <cmath>
#include <cstdio>

#include "qfc/photonics/device_presets.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/qudit/cglmp.hpp"
#include "qfc/qudit/freq_bin_source.hpp"
#include "qfc/qudit/measurement.hpp"
#include "qfc/qudit/mub.hpp"
#include "qfc/sfwm/pair_source.hpp"
#include "qfc/tomo/tomography.hpp"

int main() {
  using namespace qfc;

  const std::size_t d = 5;
  const auto ring = photonics::entanglement_device();
  photonics::CwPump pump;
  pump.power_w = 0.01;
  pump.frequency_hz = photonics::pump_resonance_hz(ring);
  const sfwm::CwPairSource cw(ring, pump, 8);

  std::printf("== frequency-bin qudit source (d = %zu) ==\n", d);
  const auto src = qudit::FreqBinSource::from_cw_source(cw, d);
  const auto amps = src.bin_amplitudes();
  for (std::size_t k = 0; k < d; ++k) {
    const auto pair = src.grid().pair(static_cast<int>(k) + 1);
    std::printf("bin %zu: signal %s  |c|^2 = %.4f\n", k,
                photonics::CombGrid::describe(pair.signal).c_str(),
                std::norm(amps[k]));
  }
  std::printf("Schmidt number K = %.3f, entanglement entropy %.3f bits "
              "(log2 d = %.3f)\n",
              src.schmidt_number(), src.entanglement_entropy_bits(),
              std::log2(static_cast<double>(d)));

  std::printf("\n== amplitude shaping (procrustean flattening) ==\n");
  const quantum::StateVector flat = src.flattened_state();
  std::printf("flattened overlap with |Phi_%zu>: %.6f, post-selection "
              "efficiency %.3f\n",
              d, flat.overlap_probability(quantum::maximally_entangled(d)),
              src.shaping_efficiency(src.flattening_mask()));

  const quantum::DensityMatrix rho(flat);
  std::printf("\n== dimensionality witness ==\n");
  std::printf("certified Schmidt number: %zu of %zu\n",
              qudit::schmidt_number_witness(rho), d);

  std::printf("\n== CGLMP Bell test ==\n");
  rng::Xoshiro256 g(7);
  std::printf("exact I_%zu = %.5f (classical bound %.0f)\n", d,
              qudit::cglmp_value(rho), qudit::cglmp_classical_bound());
  const auto meas = qudit::measure_cglmp(rho, 20000, 1.0, g);
  std::printf("counts  I_%zu = %.3f +/- %.3f (%.1f sigma above classical)\n", d,
              meas.i_value, meas.i_err, meas.sigmas_above_classical());

  std::printf("\n== EOM + pulse-shaper analyzer ==\n");
  const qudit::FreqBinAnalyzer analyzer(d);
  std::printf("projection efficiency of a Fourier-basis analysis vector: %.3f "
              "(modulation index %.1f)\n",
              analyzer.projection_efficiency(analyzer.fourier_vector(0, 0.0)),
              analyzer.config().modulation_index);

  std::printf("\n== MUB tomography (d = %zu is prime -> %zu bases) ==\n", d, d + 1);
  const auto data = tomo::simulate_counts(rho, qudit::mub_bases(d), 10000, 0.0, g);
  const auto mle = tomo::maximum_likelihood(data, qudit::mub_bases(d));
  std::printf("MLE: %d iterations, converged = %s, likelihood gap %.1e per count\n",
              mle.iterations, mle.converged ? "yes" : "no", mle.likelihood_gap);
  std::printf("reconstruction fidelity with the true state: %.4f\n",
              quantum::fidelity(mle.rho, flat));
  std::printf("reconstructed negativity: %.3f (ideal (d-1)/2 = %.1f)\n",
              quantum::negativity(mle.rho, 1), (static_cast<double>(d) - 1) / 2);
  return 0;
}
