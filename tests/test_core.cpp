// Tests for the core experiment layer (S9): channel model, heralded,
// type-II, time-bin, four-photon, stability, façade.

#include <cmath>
#include <regex>
#include <string>

#include <gtest/gtest.h>

#include "qfc/core/comb_source.hpp"
#include "qfc/io/fields.hpp"
#include "qfc/photonics/device_presets.hpp"

namespace {

using namespace qfc;
using core::QuantumFrequencyComb;

TEST(ChannelModel, DeterministicAndInRange) {
  core::ChannelModel m;
  const auto c1 = m.chain(1, 0);
  const auto c1again = m.chain(1, 0);
  EXPECT_DOUBLE_EQ(c1.transmission, c1again.transmission);
  for (int k = 1; k <= 8; ++k) {
    for (int arm : {0, 1}) {
      const auto c = m.chain(k, arm);
      EXPECT_GT(c.transmission, 0.5);
      EXPECT_LE(c.transmission, 1.0);
      EXPECT_GT(c.detector.dark_rate_hz, 0.0);
    }
  }
  EXPECT_THROW(m.chain(0, 0), std::invalid_argument);
  EXPECT_THROW(m.chain(1, 2), std::invalid_argument);
}

TEST(ChannelModel, ChannelsDiffer) {
  core::ChannelModel m;
  EXPECT_NE(m.chain(1, 0).transmission, m.chain(2, 0).transmission);
  EXPECT_NE(m.chain(1, 0).transmission, m.chain(1, 1).transmission);
}

class HeraldedFixture : public ::testing::Test {
 protected:
  HeraldedFixture()
      : comb_(QuantumFrequencyComb::for_configuration(
            core::PumpConfiguration::SelfLockedCw)) {}

  core::HeraldedConfig fast_config() const {
    core::HeraldedConfig cfg;
    cfg.duration_s = 10.0;  // short but statistically sufficient
    cfg.num_channel_pairs = 3;
    return cfg;
  }

  QuantumFrequencyComb comb_;
};

TEST_F(HeraldedFixture, DiagonalCellsCorrelatedOffDiagonalNot) {
  auto exp = comb_.heralded(fast_config());
  const auto cells = exp.run_coincidence_matrix();
  ASSERT_EQ(cells.size(), 9u);
  for (const auto& c : cells) {
    if (c.signal_k == c.idler_k) {
      EXPECT_GT(c.car.car, 5.0) << "diagonal " << c.signal_k;
    } else {
      EXPECT_LT(c.car.car, 2.5) << "off-diagonal " << c.signal_k << "," << c.idler_k;
    }
  }
}

TEST_F(HeraldedFixture, ChannelTableInPaperRanges) {
  auto exp = comb_.heralded(fast_config());
  const auto table = exp.run_channel_table();
  ASSERT_EQ(table.size(), 3u);
  for (const auto& r : table) {
    // Loose bands (short run): rates O(10 Hz), CAR O(10).
    EXPECT_GT(r.coincidence_rate_hz, 5.0) << "k=" << r.k;
    EXPECT_LT(r.coincidence_rate_hz, 60.0) << "k=" << r.k;
    EXPECT_GT(r.car, 5.0) << "k=" << r.k;
    EXPECT_LT(r.car, 80.0) << "k=" << r.k;
    EXPECT_GT(r.singles_signal_hz, 1000.0);
  }
}

TEST_F(HeraldedFixture, CoherenceMeasurementNearRingLinewidth) {
  auto exp = comb_.heralded(fast_config());
  const auto res = exp.run_coherence_measurement(1, 60.0);
  // Ring linewidth 100 MHz; measured (jitter-broadened fit) should be in
  // the 80-150 MHz window, and the deconvolved value closer to the ring's.
  EXPECT_NEAR(res.ring_linewidth_hz, 110e6, 5e6);
  EXPECT_GT(res.measured_linewidth_hz, 70e6);
  EXPECT_LT(res.measured_linewidth_hz, 160e6);
  EXPECT_GT(res.fitted_tau_s, 0.5e-9);
}

TEST_F(HeraldedFixture, InvalidConfigThrows) {
  core::HeraldedConfig cfg;
  cfg.duration_s = -1;
  EXPECT_THROW(comb_.heralded(cfg), std::invalid_argument);
  auto exp = comb_.heralded(fast_config());
  EXPECT_THROW(exp.run_coherence_measurement(99, 1.0), std::out_of_range);
}

TEST(Type2ExperimentTest, CarAroundTenAtTwoMilliwatt) {
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::CrossPolarized);
  core::Type2Config cfg;
  cfg.duration_s = 60.0;
  auto exp = comb.type2(cfg);
  const auto r = exp.run_car_measurement();
  EXPECT_GT(r.car.car, 4.0);
  EXPECT_LT(r.car.car, 30.0);
}

TEST(Type2ExperimentTest, OpoThresholdAndScaling) {
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::CrossPolarized);
  auto exp = comb.type2({});
  EXPECT_NEAR(exp.opo_threshold_w(), 14e-3, 5e-3);

  const auto curve = exp.run_opo_curve(30e-3, 30);
  ASSERT_EQ(curve.size(), 30u);
  // Monotone increasing output.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].output_w, curve[i - 1].output_w);
  // Above-threshold points flagged.
  EXPECT_TRUE(curve.back().oscillating);
  EXPECT_FALSE(curve.front().oscillating);
}

TEST(Type2ExperimentTest, StimulatedSuppressionLarge) {
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::CrossPolarized);
  auto exp = comb.type2({});
  EXPECT_GT(exp.stimulated_suppression_db(), 20.0);
}

TEST(TimebinExperimentTest, VisibilityAndChshOnAllChannels) {
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  const auto results = exp.run_all_channels();
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) {
    EXPECT_GT(r.fringe_fit.visibility, 0.70) << "k=" << r.k;
    EXPECT_LT(r.fringe_fit.visibility, 0.95) << "k=" << r.k;
    EXPECT_NEAR(r.fringe_fit.visibility, r.predicted_visibility, 0.08) << "k=" << r.k;
    EXPECT_GT(r.chsh.s, 2.0) << "k=" << r.k;  // all channels violate CHSH
    EXPECT_LE(r.chsh.s, 2.0 * std::sqrt(2.0) + 0.05) << "k=" << r.k;
  }
}

TEST(TimebinExperimentTest, MuIsInMultiPairRegimeButSmall) {
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  for (int k = 1; k <= 5; ++k) {
    const auto m = exp.noise_model(k);
    EXPECT_GT(m.mean_pairs_per_double_pulse, 1e-3) << "k=" << k;
    EXPECT_LT(m.mean_pairs_per_double_pulse, 0.5) << "k=" << k;
  }
}

TEST(FourPhotonExperimentTest, VisibilityAndFidelityNearPaper) {
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulseFourMode);
  core::FourPhotonConfig cfg;
  cfg.tomo_shots_per_setting = 150;  // keep the test fast
  auto exp = comb.four_photon(cfg);
  const auto r = exp.run();

  // Four-photon interference: ~89% raw visibility.
  EXPECT_GT(r.analytic_visibility, 0.84);
  EXPECT_LT(r.analytic_visibility, 0.94);

  // Bell fidelities high, four-photon tomographic fidelity near 64%.
  EXPECT_GT(r.bell_fidelity_a, 0.75);
  EXPECT_GT(r.bell_fidelity_b, 0.75);
  EXPECT_GT(r.four_photon_fidelity, 0.5);
  EXPECT_LT(r.four_photon_fidelity, 0.85);
}

TEST(FourPhotonExperimentTest, LikelihoodGapPrintsAsTwoDigits) {
  // The reported gap is rounded up to two significant digits and must dump
  // as such: "6.9e-09", not "6.9000000000000006e-09". The configuration is
  // the smoke sweep's four_photon instance.
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulseFourMode);
  core::FourPhotonConfig cfg;
  cfg.fringe_points = 8;
  cfg.fourfold_events_per_point = 50.0;
  cfg.tomo_shots_per_setting = 60;
  const auto r = comb.four_photon(cfg).run();
  const std::string text = qfc::io::to_json(r).dump();
  const std::string key = "\"likelihood_gap_four\":";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos) << text;
  const std::string gap = text.substr(at + key.size(), text.find_first_of(",}", at) -
                                                           at - key.size());
  EXPECT_TRUE(std::regex_match(gap, std::regex(R"(\s*[1-9](\.[0-9])?e-[0-9]+)"))) << gap;
}

TEST(FourPhotonExperimentTest, TrueStateIsProductOfPairs) {
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulseFourMode);
  auto exp = comb.four_photon({});
  const auto rho4 = exp.true_state();
  EXPECT_EQ(rho4.num_qubits(), 4u);
  // Reduced state of qubits {0,1} equals the pair state.
  // The two pairs sit on different channel pairs, so their μ (and thus
  // purity) differ slightly through the phase-matching envelope.
  const auto reduced = rho4.partial_trace_keep({0, 1});
  EXPECT_NEAR(quantum::purity(reduced), quantum::purity(rho4.partial_trace_keep({2, 3})),
              1e-3);
}

TEST(FourPhotonExperimentTest, RejectsSamePair) {
  auto comb = QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulseFourMode);
  core::FourPhotonConfig cfg;
  cfg.pair_a = 1;
  cfg.pair_b = 1;
  EXPECT_THROW(comb.four_photon(cfg), std::invalid_argument);
}

TEST(StabilityExperimentTest, SelfLockedBeatsExternal) {
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::SelfLockedCw);
  core::StabilityConfig cfg;
  cfg.observation_days = 7.0;  // one week is enough for the statistics
  auto exp = comb.stability(cfg);
  const auto cmp = exp.run();

  // Paper: < 5% fluctuation for the self-locked scheme, "several weeks".
  EXPECT_LT(cmp.self_locked.rms_fluctuation_percent, 5.0);
  EXPECT_GT(cmp.external.rms_fluctuation_percent,
            5.0 * cmp.self_locked.rms_fluctuation_percent);
  EXPECT_NEAR(cmp.self_locked.mean, 1.0, 0.05);
  EXPECT_LT(cmp.external.mean, 0.9);
}

TEST(StabilityExperimentTest, DetuningCurveIsLorentzianSquared) {
  auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::SelfLockedCw);
  auto exp = comb.stability({});
  const double lw = comb.device().linewidth_hz(photonics::itu_anchor_hz,
                                               photonics::Polarization::TE);
  EXPECT_NEAR(exp.relative_rate_at_detuning(0.0), 1.0, 1e-12);
  EXPECT_NEAR(exp.relative_rate_at_detuning(lw / 2), 0.25, 1e-9);
  EXPECT_LT(exp.relative_rate_at_detuning(5 * lw), 0.001);
}

TEST(Facade, ConfigurationsMapToDevices) {
  using core::PumpConfiguration;
  const auto heralded =
      QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
  const auto type2 =
      QuantumFrequencyComb::for_configuration(PumpConfiguration::CrossPolarized);
  const auto timebin =
      QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);

  const double lw_h = heralded.device().linewidth_hz(photonics::itu_anchor_hz,
                                                     photonics::Polarization::TE);
  const double lw_t = type2.device().linewidth_hz(photonics::itu_anchor_hz,
                                                  photonics::Polarization::TE);
  const double lw_e = timebin.device().linewidth_hz(photonics::itu_anchor_hz,
                                                    photonics::Polarization::TE);
  EXPECT_NEAR(lw_h, 110e6, 10e6);
  EXPECT_NEAR(lw_t, 80e6, 10e6);
  EXPECT_NEAR(lw_e, 820e6, 60e6);
}

TEST(Facade, GridFromDevice) {
  const auto comb =
      QuantumFrequencyComb::for_configuration(core::PumpConfiguration::SelfLockedCw);
  const auto grid = comb.grid(5);
  EXPECT_EQ(grid.num_pairs(), 5);
  EXPECT_NEAR(grid.spacing_hz(), 200e9, 5e9);
}

}  // namespace
