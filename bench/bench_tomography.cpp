// E9 (Sec. V): quantum state tomography — Bell-state density matrices per
// channel pair and the four-photon state with fidelity 64%. Ablation:
// MLE vs (projected) linear inversion under shot noise.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "qfc/core/comb_source.hpp"
#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/tomo/tomography.hpp"

int main() {
  using namespace qfc;
  bench::header("E9  bench_tomography",
                "quantum state tomography: Bell states confirmed per channel; "
                "four-photon density matrix fidelity 64% vs ideal");

  auto comb = core::QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulseFourMode);
  auto exp = comb.four_photon({});
  const auto r = exp.run();

  std::printf("Bell-state tomography (MLE):\n");
  std::printf("  channel pair A fidelity: %.3f\n", r.bell_fidelity_a);
  std::printf("  channel pair B fidelity: %.3f\n", r.bell_fidelity_b);
  std::printf("four-photon tomography (1296-outcome, 81 settings, MLE):\n");
  std::printf("  reconstructed fidelity vs |Phi>⊗|Phi>: %.3f  (paper: 0.64)\n",
              r.four_photon_fidelity);
  std::printf("  true (noise-model) state fidelity:     %.3f\n",
              r.four_photon_state_fidelity);
  std::printf("  MLE iterations (pair / four-photon):   %d / %d\n",
              r.tomo_iterations_pair, r.tomo_iterations_four);
  std::printf("  MLE converged (pairs / four-photon):   %s / %s\n",
              r.converged_pair ? "yes" : "no", r.converged_four ? "yes" : "no");
  std::printf("  four-photon likelihood gap per count:  %.1e (certified bound)\n",
              r.likelihood_gap_four);

  // Ablation: MLE vs projected linear inversion at several shot counts.
  std::printf("\nablation: reconstruction method vs shots per setting (2-qubit "
              "Werner V=0.83)\n");
  std::printf("%10s %16s %16s %18s\n", "shots", "F(linear+proj)", "F(MLE)",
              "min eig (linear)");
  const auto rho = quantum::werner_phi(0.83);
  for (double shots : {25.0, 100.0, 400.0, 1600.0}) {
    rng::Xoshiro256 g(static_cast<std::uint64_t>(shots));
    const auto data = tomo::simulate_counts(rho, shots, {}, g);
    const auto lin = tomo::linear_inversion(data, tomo::pauli_bases());
    const auto lin_evals = linalg::hermitian_eigenvalues(lin);
    const auto lin_proj =
        quantum::DensityMatrix(linalg::project_to_density_matrix(lin), 1e-6);
    const auto mle = tomo::maximum_likelihood(data);
    std::printf("%10.0f %16.3f %16.3f %18.4f\n", shots,
                quantum::fidelity(lin_proj, rho), quantum::fidelity(mle.rho, rho),
                lin_evals.back());
  }

  const bool ok = std::abs(r.four_photon_fidelity - 0.64) < 0.12 &&
                  r.bell_fidelity_a > 0.75 && r.bell_fidelity_b > 0.75;
  bench::verdict(ok, "four-photon fidelity ≈ 64% with high per-pair Bell "
                     "fidelities; MLE beats raw linear inversion at low counts");
  return ok ? 0 : 1;
}
