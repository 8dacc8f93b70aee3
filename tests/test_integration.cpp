// Cross-module integration tests: full pipelines mirroring the paper's
// sections end to end, and consistency checks between independent layers
// (analytics vs Monte-Carlo, physics vs reconstruction).

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/photonics/device_presets.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/fock.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/timebin/arrival_histogram.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/sfwm/jsa.hpp"
#include "qfc/sfwm/phase_matching.hpp"
#include "qfc/timebin/multiphoton.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using namespace qfc;
using core::QuantumFrequencyComb;

TEST(Integration, SectionII_FullChainLandsInPaperRanges) {
  // Device -> SFWM -> streams -> detectors -> CAR analysis, checked against
  // the analytic expectation computed from the same parameters.
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::SelfLockedCw);
  core::HeraldedConfig cfg;
  cfg.duration_s = 20.0;
  cfg.num_channel_pairs = 5;
  auto exp = comb.heralded(cfg);

  const auto table = exp.run_channel_table();
  for (const auto& r : table) {
    const int k = r.k;
    const auto sig = cfg.channels.chain(k, 0);
    const auto idl = cfg.channels.chain(k, 1);
    const double rate = exp.source().pair_rate_hz(k);

    // Analytic detected coincidence rate.
    const double eta_s = sig.transmission * sig.detector.efficiency;
    const double eta_i = idl.transmission * idl.detector.efficiency;
    const double expected_cc = rate * eta_s * eta_i;
    EXPECT_NEAR(r.coincidence_rate_hz, expected_cc,
                0.5 * expected_cc + 3 * std::sqrt(expected_cc / cfg.duration_s))
        << "k=" << k;

    // Analytic CAR (accidentals from singles product in the window).
    const double s_s = rate * eta_s + sig.detector.dark_rate_hz;
    const double s_i = rate * eta_i + idl.detector.dark_rate_hz;
    const double acc = s_s * s_i * cfg.coincidence_window_s;
    const double expected_car = expected_cc / acc;
    EXPECT_GT(r.car, 0.4 * expected_car) << "k=" << k;
    EXPECT_LT(r.car, 2.5 * expected_car) << "k=" << k;
  }
}

TEST(Integration, SectionII_MeasuredLinewidthConsistentWithDevice) {
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::SelfLockedCw);
  core::HeraldedConfig cfg;
  cfg.num_channel_pairs = 2;
  auto exp = comb.heralded(cfg);
  const auto res = exp.run_coherence_measurement(1, 120.0);

  // The measured value should sit near the paper's 110 MHz: above the ring
  // linewidth (jitter broadening pushed through the weighted fit) but
  // within ~50%.
  EXPECT_GT(res.measured_linewidth_hz, 0.7 * res.ring_linewidth_hz);
  EXPECT_LT(res.measured_linewidth_hz, 1.6 * res.ring_linewidth_hz);
  // Deconvolution must move the estimate toward the ring value.
  EXPECT_LE(std::abs(res.deconvolved_linewidth_hz - res.ring_linewidth_hz) - 1e6,
            std::abs(res.measured_linewidth_hz - res.ring_linewidth_hz) + 5e6);
}

TEST(Integration, SectionIII_PowerScalingIsQuadraticBelowThreshold) {
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::CrossPolarized);
  auto exp = comb.type2({});

  // On-chip pair rate must scale quadratically with total pump power.
  const auto sweep = exp.run_power_sweep({1e-3, 2e-3, 4e-3});
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_NEAR(sweep[1].pair_rate_on_chip_hz / sweep[0].pair_rate_on_chip_hz, 4.0, 0.01);
  EXPECT_NEAR(sweep[2].pair_rate_on_chip_hz / sweep[1].pair_rate_on_chip_hz, 4.0, 0.01);

  // OPO threshold within the device's quadratic region.
  EXPECT_GT(exp.opo_threshold_w(), 4e-3);
}

TEST(Integration, SectionIV_VisibilityPredictsChsh) {
  // The fitted fringe visibility and the measured CHSH S must satisfy
  // S ≈ 2√2 V within statistics, channel by channel.
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  for (int k : {1, 3, 5}) {
    const auto r = exp.run_channel(k);
    EXPECT_NEAR(r.chsh.s, 2.0 * std::sqrt(2.0) * r.fringe_fit.visibility,
                0.25) << "k=" << k;
  }
}

TEST(Integration, SectionV_TomographyMatchesNoiseModelState) {
  // Reconstructed Bell fidelity must track the fidelity of the true
  // (noise-model) state within tomography systematics.
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulseFourMode);
  core::FourPhotonConfig cfg;
  cfg.tomo_shots_per_setting = 200;
  auto exp = comb.four_photon(cfg);
  const auto r = exp.run();
  const auto rho4 = exp.true_state();
  const auto target = quantum::bell_phi().tensor(quantum::bell_phi());
  const double f_true = quantum::fidelity(rho4, target);

  EXPECT_NEAR(r.four_photon_state_fidelity, f_true, 1e-9);
  // Reconstruction adds noise; it can only degrade (within tolerance).
  EXPECT_LT(r.four_photon_fidelity, f_true + 0.05);
  EXPECT_GT(r.four_photon_fidelity, f_true - 0.25);
}

TEST(Integration, JsaPurityConsistentWithSchmidtEntropy) {
  // Purity = 1/K and entropy = 0 iff K = 1: cross-check both observables
  // over a bandwidth sweep.
  for (double ratio : {0.2, 1.0, 5.0}) {
    sfwm::JsaParams p;
    p.ring_linewidth_s_hz = 800e6;
    p.ring_linewidth_i_hz = 800e6;
    p.pump_bandwidth_hz = ratio * 800e6;
    const auto r = sfwm::schmidt_decompose(sfwm::sample_jsa(p));
    EXPECT_NEAR(r.purity, 1.0 / r.schmidt_number, 1e-12);
    if (r.schmidt_number > 1.05) {
      EXPECT_GT(r.entropy_bits, 0.05);
    }
  }
}

TEST(Integration, FourfoldVisibilityConsistency) {
  // MC fringe, analytic formula and noise model must agree.
  const double v = 0.83;
  rng::Xoshiro256 g(123);
  const auto pair = quantum::werner_phi(v);
  const auto four = pair.tensor(pair);
  const timebin::FourfoldFringe fringe{timebin::simulate_fringe(
      four, 1e5, 0.0, 24, [](double theta) { return std::vector<double>(4, theta); }, g)};
  EXPECT_NEAR(fringe.visibility(), timebin::fourfold_visibility(v, 0.0), 0.01);
}

TEST(Integration, EntanglementSurvivesDetectionNoiseChain) {
  // Time-bin channel 1: the reconstructed-by-tomography state from the
  // same noise model used for CHSH must still be entangled (concurrence
  // and negativity positive, CHSH violated).
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  const auto m = exp.noise_model(1);
  const auto rho = timebin::noisy_pair_state(m);

  EXPECT_GT(quantum::concurrence(rho), 0.5);
  EXPECT_GT(quantum::negativity(rho, 1), 0.2);

  rng::Xoshiro256 g(321);
  const auto data = tomo::simulate_counts(rho, 2000.0, {}, g);
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_GT(quantum::concurrence(mle.rho), 0.4);
}

TEST(Integration, CombCoversTelecomBandsOnDeviceGrid) {
  // Device resonances (not just the ideal grid) must cover S/C/L: ±14
  // channels at 200 GHz. Check band classification of actual resonances.
  const auto ring = photonics::heralded_source_device();
  const double pump = photonics::pump_resonance_hz(ring);
  int s = 0, c = 0, l = 0;
  for (int k = -16; k <= 16; ++k) {
    if (k == 0) continue;
    const double nu =
        ring.nearest_resonance_hz(pump + k * 200e9, photonics::Polarization::TE);
    switch (photonics::classify_band(nu)) {
      case photonics::TelecomBand::S: ++s; break;
      case photonics::TelecomBand::C: ++c; break;
      case photonics::TelecomBand::L: ++l; break;
      default: break;
    }
  }
  EXPECT_GT(s, 0);
  EXPECT_GT(c, 0);
  EXPECT_GT(l, 0);
  EXPECT_EQ(s + c + l, 32);  // nothing falls outside
}

TEST(Integration, StabilityTraceRespectsLoopModeBound) {
  // The self-locked trace can never dip below the loop model's worst-case
  // rate (up to the residual-jitter term).
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::SelfLockedCw);
  core::StabilityConfig cfg;
  cfg.observation_days = 7.0;
  cfg.self_locked_residual_fraction = 0.0;  // isolate the loop physics
  auto exp = comb.stability(cfg);
  const auto cmp = exp.run();
  const double lw = comb.device().linewidth_hz(photonics::itu_anchor_hz,
                                               photonics::Polarization::TE);
  // Worst-case dip: the rate follows the squared Lorentzian enhancement at
  // the largest loop detuning, rate_min/rate_max = [1 + (loop_fsr/δν)²]⁻².
  const double x = cfg.loop.loop_fsr_hz() / lw;
  const double bound = 1.0 / ((1.0 + x * x) * (1.0 + x * x));
  for (double r : cmp.self_locked.relative_rate) EXPECT_GE(r, bound - 1e-9);
}

TEST(Integration, BellFidelityCertifiesEveryTimebinChannel) {
  // The Bell-projector witness 1/2 - F(rho, Phi) is below -0.2 on every
  // channel: each pair state is entangled with margin.
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  for (int k = 1; k <= 5; ++k) {
    const auto rho = timebin::noisy_pair_state(exp.noise_model(k));
    EXPECT_GT(quantum::fidelity(rho, quantum::bell_phi()), 0.7) << "k=" << k;
  }
}

TEST(Integration, ArrivalHistogramRatioMatchesExactPovm) {
  // MC three-peak histogram vs exact POVM probabilities computed here
  // independently: E0 = |S><S|/4, E1 = |a><a|/2, E2 = |L><L|/4.
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  const auto rho = timebin::noisy_pair_state(exp.noise_model(1));

  linalg::CMat e0(2, 2), e2(2, 2);
  e0(0, 0) = linalg::cplx(0.25, 0);
  e2(1, 1) = linalg::cplx(0.25, 0);
  linalg::CMat e1 = quantum::projector(quantum::xy_eigenstate(0.0, +1));
  e1 *= linalg::cplx(0.5, 0);

  const double p_center =
      std::real(rho.expectation(linalg::kron(e0, e0))) +
      std::real(rho.expectation(linalg::kron(e1, e1))) +
      std::real(rho.expectation(linalg::kron(e2, e2)));
  const double p_side = std::real(rho.expectation(linalg::kron(e0, e1))) +
                        std::real(rho.expectation(linalg::kron(e1, e2)));
  const double exact_ratio = p_center / p_side;

  rng::Xoshiro256 g(99);
  const auto h = timebin::simulate_arrival_histogram(rho, 0.0, 0.0, 400000, g);
  EXPECT_NEAR(h.central_to_side_ratio(), exact_ratio, 0.04 * exact_ratio);
}

TEST(Integration, QkdKeyRequiresChshViolationMargin) {
  // QBER < 11% (key threshold) corresponds to V > 0.78 — strictly stronger
  // than the CHSH bound V > 0.707. Channels that distill key must violate
  // CHSH; channels violating CHSH need not distill key.
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  core::MultiplexedQkdLink link(exp);
  for (const auto& ch : link.all_channels(5.0)) {
    if (ch.key_positive) {
      EXPECT_GT(ch.visibility, 1.0 / std::sqrt(2.0)) << "k=" << ch.k;
    }
  }
}

TEST(Integration, HeraldedG2ConsistentWithCwSourceMu) {
  // Sec. II source: tiny μ per coherence time -> heralded g2 ~ 0
  // (pure single photons), the paper's "pure heralded single photons".
  const auto ring = photonics::heralded_source_device();
  photonics::CwPump pump;
  pump.power_w = 15e-3;
  pump.frequency_hz = photonics::pump_resonance_hz(ring);
  const sfwm::CwPairSource src(ring, pump, 5);
  const quantum::TwoModeSqueezedVacuum tmsv(src.mean_pairs_per_coherence_time(1));
  EXPECT_LT(tmsv.heralded_g2(0.2), 0.01);
}

}  // namespace
