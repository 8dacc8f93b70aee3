// Tests for the time-bin entanglement stack (S7): Franson interference,
// noise model, CHSH, four-photon interference.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/timebin/arrival_histogram.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/timebin/chsh.hpp"
#include "qfc/timebin/franson.hpp"
#include "qfc/timebin/multiphoton.hpp"
#include "qfc/timebin/timebin_state.hpp"

namespace {

using namespace qfc;
using photonics::pi;
using quantum::bell_phi;
using quantum::DensityMatrix;
using quantum::werner_phi;

/// The pair fringe's expectation with analyzer A at θ + alpha and B at beta:
/// events x P(++) at each of num_points scan phases.
std::vector<double> pair_fringe(const DensityMatrix& rho, double alpha, double beta,
                                int num_points = 64, double events = 1.0) {
  rng::Xoshiro256 g(1);
  return timebin::simulate_fringe(
             rho, events, 0.0, num_points,
             [&](double theta) { return std::vector<double>{theta + alpha, beta}; }, g)
      .expected;
}

TEST(Franson, IdealBellGivesFullFringe) {
  // With the middle-slot post-selection (1/2 per photon) folded into the
  // events, P(α,β) = (1 + cos(α+β))/4 x 1/4: max 1/8, min 0.
  const auto p = pair_fringe(DensityMatrix{bell_phi(0.0)}, 0.0, 0.0, 64, 0.25);
  EXPECT_NEAR(*std::max_element(p.begin(), p.end()), 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(*std::min_element(p.begin(), p.end()), 0.0, 1e-12);
}

TEST(Franson, FringeFollowsSumOfPhases) {
  const DensityMatrix rho{bell_phi(0.0)};
  // Shifting α by +x and β by −x leaves the coincidence rate unchanged.
  const auto p1 = pair_fringe(rho, 0.3, 0.9);
  const auto p2 = pair_fringe(rho, 0.3 + 0.4, 0.9 - 0.4);
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_NEAR(p1[i], p2[i], 1e-12) << i;
}

TEST(Franson, WernerVisibilityMatchesV) {
  for (double v : {0.5, 0.83, 1.0}) {
    // Four points: θ = 0 and π are the extrema.
    const auto p = pair_fringe(werner_phi(v), 0.0, 0.0, 4);
    EXPECT_NEAR((p[0] - p[2]) / (p[0] + p[2]), v, 1e-9) << "V=" << v;
  }
}

TEST(Franson, SimulatedFringeFitsExpectedVisibility) {
  rng::Xoshiro256 g(42);
  const DensityMatrix rho = werner_phi(0.83);
  const auto scan = timebin::simulate_fringe(
      rho, 0.25 * 2.0e5, 0.0, 24,
      [](double theta) { return std::vector<double>{theta, 0.0}; }, g);
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

TEST(Franson, RejectsBadInput) {
  rng::Xoshiro256 g(3);
  const DensityMatrix rho = werner_phi(0.83);
  const auto pair = [](double theta) { return std::vector<double>{theta, 0.0}; };
  const double nan = std::nan(""), inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(timebin::simulate_fringe(rho, 1e3, 0.0, 3, pair, g), std::invalid_argument);
  for (double events : {0.0, -1.0, nan, inf})
    EXPECT_THROW(timebin::simulate_fringe(rho, events, 0.0, 24, pair, g),
                 std::invalid_argument) << events;
  for (double floor : {-1.0, nan, inf})
    EXPECT_THROW(timebin::simulate_fringe(rho, 1e3, floor, 24, pair, g),
                 std::invalid_argument) << floor;
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
  // Tr[(ρ⊗ρ)(Π⊗Π⊗Π⊗Π)] = (Tr[ρ(Π⊗Π)])² at every common phase θ.
  const DensityMatrix pair = werner_phi(0.8);
  rng::Xoshiro256 g(5);
  const auto all_at = [](std::size_t n) {
    return [n](double theta) { return std::vector<double>(n, theta); };
  };
  const auto four = timebin::simulate_fringe(pair.tensor(pair), 1.0, 0.0, 8, all_at(4), g);
  const auto two = timebin::simulate_fringe(pair, 1.0, 0.0, 8, all_at(2), g);
  for (std::size_t i = 0; i < two.expected.size(); ++i)
    EXPECT_NEAR(four.expected[i], two.expected[i] * two.expected[i], 1e-12) << i;
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
  const timebin::FourfoldFringe fringe{timebin::simulate_fringe(
      four, 5e4, 0.0, 24, [](double theta) { return std::vector<double>(4, theta); }, g)};
  EXPECT_NEAR(fringe.visibility(), 2 * 0.83 / (1 + 0.83 * 0.83), 0.01);
}

TEST(FourPhoton, RejectsWrongDimensions) {
  // Four analyzer phases need four particles.
  rng::Xoshiro256 g(10);
  EXPECT_THROW(timebin::simulate_fringe(
                   werner_phi(0.8), 1.0, 0.0, 8,
                   [](double theta) { return std::vector<double>(4, theta); }, g),
               std::invalid_argument);
}

}  // namespace
