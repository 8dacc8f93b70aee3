// Parameterized statistics sweeps: CAR analytics vs Monte Carlo across the
// (rate, background, window) space, tomography error scaling with shot
// count, and visibility-vs-noise behaviour — the quantitative backbone
// behind every measured number in EXPERIMENTS.md.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/detect/fit.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/timebin/chsh.hpp"
#include "qfc/timebin/franson.hpp"
#include "qfc/timebin/timebin_state.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using namespace qfc;

// -------------------------------------------------------- CAR analytics

/// (pair rate Hz, background rate Hz, window ns)
class CarSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(CarSweep, MonteCarloTracksAnalyticCar) {
  const auto [pair_rate, bg_rate, window_ns] = GetParam();
  rng::Xoshiro256 g(static_cast<std::uint64_t>(pair_rate + bg_rate + window_ns));

  const double duration = 40.0;
  detect::PairStreamParams p;
  p.pair_rate_hz = pair_rate;
  p.linewidth_hz = 300e6;  // coherence ~1 ns << window
  p.duration_s = duration;
  const auto s = detect::generate_pair_arrivals(p, g);

  auto bg_a = detect::generate_poisson_arrivals(bg_rate, duration, g);
  auto bg_b = detect::generate_poisson_arrivals(bg_rate, duration, g);
  auto a = s.a;
  a.insert(a.end(), bg_a.begin(), bg_a.end());
  std::sort(a.begin(), a.end());
  auto b = s.b;
  b.insert(b.end(), bg_b.begin(), bg_b.end());
  std::sort(b.begin(), b.end());

  const double window = window_ns * 1e-9;
  const auto car = detect::measure_car(a, b, window, 40 * window, 10);

  const double singles = pair_rate + bg_rate;
  const double analytic = pair_rate / (singles * singles * window) + 1.0;
  EXPECT_GT(car.car, 0.5 * analytic) << "analytic=" << analytic;
  EXPECT_LT(car.car, 2.0 * analytic + 3 * car.car_err) << "analytic=" << analytic;
}

INSTANTIATE_TEST_SUITE_P(
    RateBackgroundWindow, CarSweep,
    ::testing::Values(std::make_tuple(500.0, 2000.0, 10.0),
                      std::make_tuple(2000.0, 2000.0, 10.0),
                      std::make_tuple(500.0, 10000.0, 10.0),
                      std::make_tuple(2000.0, 5000.0, 25.0),
                      std::make_tuple(5000.0, 1000.0, 5.0),
                      std::make_tuple(1000.0, 20000.0, 50.0)));

// ---------------------------------------------- tomography error scaling

class TomoShotsSweep : public ::testing::TestWithParam<int> {};

TEST_P(TomoShotsSweep, InfidelityShrinksWithShots) {
  const int shots = GetParam();
  rng::Xoshiro256 g(static_cast<std::uint64_t>(shots) * 13 + 7);
  const auto rho = quantum::werner_phi(0.83);

  double infid_sum = 0;
  const int repeats = 3;
  for (int r = 0; r < repeats; ++r) {
    const auto data = tomo::simulate_counts(rho, shots, {}, g);
    const auto mle = tomo::maximum_likelihood(data);
    infid_sum += 1.0 - quantum::fidelity(mle.rho, rho);
  }
  const double infid = infid_sum / repeats;
  // Statistical scaling: infidelity bounded by ~c/sqrt(shots) with c ~ 1.5.
  EXPECT_LT(infid, 1.5 / std::sqrt(static_cast<double>(shots)) + 0.005)
      << "shots=" << shots;
}

INSTANTIATE_TEST_SUITE_P(Shots, TomoShotsSweep, ::testing::Values(50, 200, 800, 3200));

class TomoVisibilitySweep : public ::testing::TestWithParam<double> {};

TEST_P(TomoVisibilitySweep, ReconstructedBellFidelityTracksWerner) {
  const double v = GetParam();
  rng::Xoshiro256 g(static_cast<std::uint64_t>(v * 1e4));
  const auto rho = quantum::werner_phi(v);
  const auto data = tomo::simulate_counts(rho, 3000.0, {}, g);
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_NEAR(quantum::fidelity(mle.rho, quantum::bell_phi()), (1 + 3 * v) / 4, 0.03)
      << "V=" << v;
  // Concurrence tracks max(0, (3V-1)/2).
  EXPECT_NEAR(quantum::concurrence(mle.rho), std::max(0.0, (3 * v - 1) / 2), 0.06)
      << "V=" << v;
}

INSTANTIATE_TEST_SUITE_P(Visibilities, TomoVisibilitySweep,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.83, 0.95, 1.0));

// -------------------------------------------- visibility / CHSH vs noise

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, ChshExactlyTracksStateVisibility) {
  const double mu = GetParam();
  timebin::TimebinNoiseModel m;
  m.mean_pairs_per_double_pulse = mu;
  m.phase_noise_rms_rad = 0.12;
  m.accidental_fraction = 0.0;
  const double v = timebin::state_visibility(m);
  const auto rho = timebin::noisy_pair_state(m);
  const auto s = timebin::optimal_settings_for_phi(0.0);
  EXPECT_NEAR(timebin::chsh_s_value(rho, s), 2 * std::sqrt(2.0) * v, 1e-9)
      << "mu=" << mu;
  // Violation iff V > 1/sqrt(2).
  EXPECT_EQ(timebin::chsh_s_value(rho, s) > 2.0, v > 1.0 / std::sqrt(2.0))
      << "mu=" << mu;
}

INSTANTIATE_TEST_SUITE_P(MultiPair, NoiseSweep,
                         ::testing::Values(0.0, 0.02, 0.08, 0.17, 0.25, 0.6, 1.5));

class PhaseNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(PhaseNoiseSweep, DephasingFactorIsGaussian) {
  const double sigma = GetParam();
  timebin::TimebinNoiseModel m;
  m.mean_pairs_per_double_pulse = 0;
  m.phase_noise_rms_rad = sigma;
  m.accidental_fraction = 0;
  EXPECT_NEAR(timebin::state_visibility(m), std::exp(-sigma * sigma / 2), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(PhaseRms, PhaseNoiseSweep,
                         ::testing::Values(0.0, 0.05, 0.12, 0.3, 0.7, 1.5));

// ------------------------------------------------ fringe-fit robustness

class FringeFitSweep : public ::testing::TestWithParam<double> {};

TEST_P(FringeFitSweep, FitRecoversVisibilityUnderPoissonNoise) {
  const double v = GetParam();
  rng::Xoshiro256 g(static_cast<std::uint64_t>(v * 1000) + 5);
  const auto rho = quantum::werner_phi(v);
  const auto scan = timebin::simulate_fringe(
      rho, 0.25 * 4.0e5, 0.0, 24,
      [](double theta) { return std::vector<double>{theta, 0.3}; }, g);
  const auto fit = detect::fit_sinusoid(scan.phase_rad, scan.counts);
  EXPECT_NEAR(fit.visibility, v, 0.03) << "V=" << v;
}

INSTANTIATE_TEST_SUITE_P(FringeVisibilities, FringeFitSweep,
                         ::testing::Values(0.2, 0.5, 0.707, 0.83, 0.95));

}  // namespace
