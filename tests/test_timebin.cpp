// Tests for the time-bin entanglement stack (S7): interferometer, Franson
// interference, noise model, CHSH, four-photon interference.

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/timebin/arrival_histogram.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/timebin/chsh.hpp"
#include "qfc/timebin/franson.hpp"
#include "qfc/timebin/interferometer.hpp"
#include "qfc/timebin/multiphoton.hpp"
#include "qfc/timebin/timebin_state.hpp"

namespace {

using namespace qfc;
using photonics::pi;
using quantum::bell_phi;
using quantum::DensityMatrix;
using quantum::werner_phi;
using timebin::UnbalancedMichelson;

TEST(Interferometer, PathAmplitudesCarryPhase) {
  const UnbalancedMichelson mi(1e-9, 0.7);
  EXPECT_NEAR(std::abs(mi.short_path_amplitude()), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(mi.long_path_amplitude()), 0.5, 1e-12);
  EXPECT_NEAR(std::arg(mi.long_path_amplitude()), 0.7, 1e-12);
  EXPECT_NEAR(mi.postselection_probability(), 0.5, 1e-12);
}

TEST(Interferometer, AnalyzerProjectorIsRankOneProjector) {
  const UnbalancedMichelson mi(1e-9, 1.2);
  const auto p = mi.analyzer_projector();
  // Projectors: P² = P, trace 1.
  EXPECT_LT((p * p - p).max_abs(), 1e-12);
  EXPECT_NEAR(std::real(p.trace()), 1.0, 1e-12);
}

TEST(Interferometer, BadParametersThrow) {
  EXPECT_THROW(UnbalancedMichelson(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(UnbalancedMichelson(1e-9, 0.0, 1.5), std::invalid_argument);
}

TEST(Franson, IdealBellGivesFullFringe) {
  const DensityMatrix rho{bell_phi(0.0)};
  double mx = 0, mn = 1;
  for (int i = 0; i < 64; ++i) {
    const double a = 2 * pi * i / 64.0;
    const UnbalancedMichelson ma(1e-9, a), mb(1e-9, 0.0);
    const double p = timebin::coincidence_probability(rho, ma, mb);
    mx = std::max(mx, p);
    mn = std::min(mn, p);
  }
  // P(α,β) = (1 + cos(α+β))/4 x (1/4 post-selection): max 1/8, min 0.
  EXPECT_NEAR(mx, 1.0 / 8.0, 1e-6);
  EXPECT_NEAR(mn, 0.0, 1e-6);
}

TEST(Franson, FringeFollowsSumOfPhases) {
  const DensityMatrix rho{bell_phi(0.0)};
  // Shifting α by +x and β by −x leaves the coincidence rate unchanged.
  const UnbalancedMichelson a1(1e-9, 0.3), b1(1e-9, 0.9);
  const UnbalancedMichelson a2(1e-9, 0.3 + 0.4), b2(1e-9, 0.9 - 0.4);
  EXPECT_NEAR(timebin::coincidence_probability(rho, a1, b1),
              timebin::coincidence_probability(rho, a2, b2), 1e-12);
}

TEST(Franson, WernerVisibilityMatchesV) {
  for (double v : {0.5, 0.83, 1.0}) {
    const DensityMatrix rho = werner_phi(v);
    const UnbalancedMichelson mb(1e-9, 0.0);
    const double pmax = timebin::coincidence_probability(
        rho, UnbalancedMichelson(1e-9, 0.0), mb);
    const double pmin = timebin::coincidence_probability(
        rho, UnbalancedMichelson(1e-9, pi), mb);
    EXPECT_NEAR((pmax - pmin) / (pmax + pmin), v, 1e-9) << "V=" << v;
  }
}

TEST(Franson, SimulatedFringeFitsExpectedVisibility) {
  rng::Xoshiro256 g(42);
  const DensityMatrix rho = werner_phi(0.83);
  const auto scan = timebin::simulate_fringe(rho, 2.0e5, 0.0, 24, 1e-9, 0.0, g);
  ASSERT_EQ(scan.counts.size(), 24u);
  // Fit the analytic expectation: visibility must be exactly 0.83; the
  // Poisson counts must scatter around it.
  double mx = 0, mn = 1e18;
  for (double e : scan.expected) {
    mx = std::max(mx, e);
    mn = std::min(mn, e);
  }
  EXPECT_NEAR((mx - mn) / (mx + mn), 0.83, 1e-6);
}

TEST(NoiseModel, PredictedVisibilityComponents) {
  timebin::TimebinNoiseModel m;
  m.mean_pairs_per_double_pulse = 0;
  m.phase_noise_rms_rad = 0;
  m.accidental_fraction = 0;
  EXPECT_NEAR(timebin::predicted_visibility(m), 1.0, 1e-12);

  m.mean_pairs_per_double_pulse = 0.1;
  EXPECT_NEAR(timebin::predicted_visibility(m), 1.0 / 1.2, 1e-12);

  m.mean_pairs_per_double_pulse = 0;
  m.phase_noise_rms_rad = 0.3;
  EXPECT_NEAR(timebin::predicted_visibility(m), std::exp(-0.045), 1e-12);

  m.phase_noise_rms_rad = 0;
  m.accidental_fraction = 0.05;
  EXPECT_NEAR(timebin::predicted_visibility(m), 0.95, 1e-12);
}

TEST(NoiseModel, PaperOperatingPointGives83Percent) {
  // μ, phase noise and accidentals chosen at the paper's operating point
  // must land the raw visibility near 83%.
  timebin::TimebinNoiseModel m;
  m.mean_pairs_per_double_pulse = 0.08;
  m.phase_noise_rms_rad = 0.12;
  m.accidental_fraction = 0.02;
  EXPECT_NEAR(timebin::predicted_visibility(m), 0.83, 0.03);
}

TEST(NoiseModel, StateFidelityConsistentWithVisibility) {
  timebin::TimebinNoiseModel m;
  m.mean_pairs_per_double_pulse = 0.08;
  m.phase_noise_rms_rad = 0.12;
  m.accidental_fraction = 0.02;
  const double v = timebin::state_visibility(m);
  const auto rho = timebin::noisy_pair_state(m);
  EXPECT_NEAR(quantum::fidelity(rho, bell_phi()), (1 + 3 * v) / 4, 1e-9);
  // Raw visibility additionally pays the accidental fraction.
  EXPECT_NEAR(timebin::predicted_visibility(m), v * 0.98, 1e-12);
}

TEST(Chsh, CorrelationClosedForm) {
  const DensityMatrix rho{bell_phi(0.4)};
  for (double a : {0.0, 0.5}) {
    for (double b : {0.2, 1.0}) {
      EXPECT_NEAR(timebin::correlation(rho, a, b), std::cos(a + b - 0.4), 1e-9);
    }
  }
}

TEST(Chsh, IdealBellReachesTsirelson) {
  const DensityMatrix rho{bell_phi(0.0)};
  const auto s = timebin::optimal_settings_for_phi(0.0);
  EXPECT_NEAR(timebin::chsh_s_value(rho, s), 2.0 * std::sqrt(2.0), 1e-9);
}

TEST(Chsh, WernerSIs2Sqrt2TimesV) {
  for (double v : {0.5, 0.71, 0.83, 1.0}) {
    const auto s = timebin::optimal_settings_for_phi(0.0);
    EXPECT_NEAR(timebin::chsh_s_value(werner_phi(v), s), 2.0 * std::sqrt(2.0) * v, 1e-9);
  }
}

TEST(Chsh, ViolationThresholdAtV0707) {
  const auto s = timebin::optimal_settings_for_phi(0.0);
  EXPECT_LT(timebin::chsh_s_value(werner_phi(0.70), s), 2.0);
  EXPECT_GT(timebin::chsh_s_value(werner_phi(0.72), s), 2.0);
}

TEST(Chsh, PumpPhaseRotatesOptimalSettings) {
  // With matched settings, S is invariant under the pump phase.
  for (double phase : {0.0, 0.7, 2.1}) {
    const DensityMatrix rho = werner_phi(0.83, phase);
    const auto s = timebin::optimal_settings_for_phi(phase);
    EXPECT_NEAR(timebin::chsh_s_value(rho, s), 2.0 * std::sqrt(2.0) * 0.83, 1e-9);
  }
}

TEST(Chsh, MeasuredSMatchesAnalytic) {
  rng::Xoshiro256 g(7);
  const DensityMatrix rho = werner_phi(0.83);
  const auto settings = timebin::optimal_settings_for_phi(0.0);
  const auto m = timebin::measure_chsh(rho, settings, 2.0e5, 0.0, g);
  EXPECT_NEAR(m.s, 2.0 * std::sqrt(2.0) * 0.83, 0.02);
  EXPECT_TRUE(m.violates_classical());
  EXPECT_GT(m.sigmas_above_2(), 10.0);
}

TEST(Chsh, AccidentalsDegradeS) {
  rng::Xoshiro256 g(8);
  const DensityMatrix rho = werner_phi(0.9);
  const auto settings = timebin::optimal_settings_for_phi(0.0);
  const auto clean = timebin::measure_chsh(rho, settings, 1.0e5, 0.0, g);
  const auto noisy = timebin::measure_chsh(rho, settings, 1.0e5, 1.0e4, g);
  EXPECT_LT(noisy.s, clean.s);
}

TEST(Chsh, MeasurementRejectsBadInput) {
  rng::Xoshiro256 g(9);
  const DensityMatrix rho = werner_phi(0.9);
  const auto settings = timebin::optimal_settings_for_phi(0.0);
  EXPECT_THROW(timebin::measure_chsh(rho.tensor(rho), settings, 1.0e3, 0.0, g),
               std::invalid_argument);
  EXPECT_THROW(timebin::measure_chsh(rho, settings, 0.0, 0.0, g), std::invalid_argument);
  EXPECT_THROW(timebin::measure_chsh(rho, settings, 1.0e3, -1.0, g), std::invalid_argument);
  EXPECT_THROW(timebin::measure_chsh(rho, settings, std::nan(""), 0.0, g),
               std::invalid_argument);
}

TEST(FourPhoton, ProbabilityOfProductState) {
  // Tr[(ρ⊗ρ)(Π⊗Π⊗Π⊗Π)] = (Tr[ρ(Π⊗Π)])².
  const DensityMatrix pair = werner_phi(0.8);
  const DensityMatrix four = pair.tensor(pair);
  for (double th : {0.0, 0.9}) {
    const double p4 = timebin::fourfold_probability(four, th);
    const linalg::CMat proj = quantum::projector(quantum::xy_eigenstate(th, +1));
    const double p2 = pair.probability(linalg::kron(proj, proj));
    EXPECT_NEAR(p4, p2 * p2, 1e-10);
  }
}

TEST(FourPhoton, AnalyticVisibilityFormula) {
  // No accidentals: V4 = 2V/(1+V²).
  EXPECT_NEAR(timebin::fourfold_visibility(1.0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(timebin::fourfold_visibility(0.83, 0.0),
              2 * 0.83 / (1 + 0.83 * 0.83), 1e-12);
  // Paper operating point: V=0.83 with ~13% four-fold accidentals -> ~89%.
  EXPECT_NEAR(timebin::fourfold_visibility(0.83, 0.13), 0.89, 0.01);
}

TEST(FourPhoton, SimulatedFringeMatchesAnalytic) {
  rng::Xoshiro256 g(9);
  const DensityMatrix pair = werner_phi(0.83);
  const DensityMatrix four = pair.tensor(pair);
  const auto fringe = timebin::simulate_fourfold_fringe(four, 5e4, 0.0, 24, g);
  EXPECT_NEAR(fringe.visibility, 2 * 0.83 / (1 + 0.83 * 0.83), 0.01);
}

TEST(FourPhoton, RejectsWrongDimensions) {
  const DensityMatrix pair = werner_phi(0.8);
  EXPECT_THROW(timebin::fourfold_probability(pair, 0.0), std::invalid_argument);
}

}  // namespace
