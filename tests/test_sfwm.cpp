// Tests for the SFWM engine (S5): phase matching, JSA/Schmidt, pair rates,
// type-II source, OPO model.

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/photonics/constants.hpp"
#include "qfc/photonics/device_presets.hpp"
#include "qfc/sfwm/jsa.hpp"
#include "qfc/sfwm/pair_source.hpp"
#include "qfc/sfwm/phase_matching.hpp"
#include "qfc/sfwm/type2.hpp"

namespace {

using namespace qfc;
using photonics::Polarization;

photonics::CwPump cw_pump(const photonics::MicroringResonator& ring, double power) {
  photonics::CwPump p;
  p.power_w = power;
  p.frequency_hz = photonics::pump_resonance_hz(ring);
  return p;
}

// ------------------------------------------------------- phase matching

TEST(PhaseMatching, MismatchSmallNearPumpGrowsWithK) {
  const auto ring = photonics::heralded_source_device();
  const double pump = photonics::pump_resonance_hz(ring);
  const double m1 = std::abs(sfwm::type0_energy_mismatch_hz(ring, pump, 1));
  const double m10 = std::abs(sfwm::type0_energy_mismatch_hz(ring, pump, 10));
  EXPECT_LT(m1, ring.linewidth_hz(pump, Polarization::TE));
  EXPECT_GE(m10, m1);
}

TEST(PhaseMatching, LorentzianFactorBounds) {
  EXPECT_NEAR(sfwm::lorentzian_pm_factor(0, 100e6, 100e6), 1.0, 1e-12);
  EXPECT_NEAR(sfwm::lorentzian_pm_factor(100e6, 100e6, 100e6), 0.5, 1e-12);
  EXPECT_LT(sfwm::lorentzian_pm_factor(1e9, 100e6, 100e6), 0.01);
  EXPECT_THROW(sfwm::lorentzian_pm_factor(0, -1, 100e6), std::invalid_argument);
}

TEST(PhaseMatching, KZeroThrows) {
  const auto ring = photonics::heralded_source_device();
  EXPECT_THROW(sfwm::type0_energy_mismatch_hz(ring, 193.1e12, 0), std::invalid_argument);
}

TEST(PhaseMatching, BirefringentDeviceSuppressesStimulatedFwm) {
  const auto biref = photonics::type2_device();
  const auto square = photonics::type2_device_no_offset();
  const double te_b = biref.nearest_resonance_hz(photonics::itu_anchor_hz, Polarization::TE);
  const double tm_b = biref.nearest_resonance_hz(te_b, Polarization::TM);
  const double te_s = square.nearest_resonance_hz(photonics::itu_anchor_hz, Polarization::TE);
  const double tm_s = square.nearest_resonance_hz(te_s, Polarization::TM);

  const double supp_biref = sfwm::stimulated_fwm_suppression_db(biref, te_b, tm_b);
  const double supp_square = sfwm::stimulated_fwm_suppression_db(square, te_s, tm_s);
  EXPECT_GT(supp_biref, 20.0);   // "completely suppressed"
  EXPECT_LT(supp_square, 1.0);   // no offset -> no suppression
}

TEST(PhaseMatching, GridOffsetFoldedIntoHalfFsr) {
  const auto ring = photonics::type2_device();
  const double off = sfwm::te_tm_grid_offset_hz(ring, photonics::itu_anchor_hz);
  const double fsr = ring.fsr_hz(photonics::itu_anchor_hz, Polarization::TM);
  EXPECT_LE(std::abs(off), fsr / 2 + 1.0);
  EXPECT_GT(std::abs(off), 1e9);  // designed offset is GHz-scale
}

// ------------------------------------------------------------------ JSA

TEST(Jsa, SampledMatrixIsNormalized) {
  sfwm::JsaParams p;
  p.pump_bandwidth_hz = 100e6;
  p.ring_linewidth_s_hz = 100e6;
  p.ring_linewidth_i_hz = 100e6;
  p.grid_points = 48;
  const auto a = sfwm::sample_jsa(p);
  EXPECT_NEAR(a.frobenius_norm(), 1.0, 1e-10);
  EXPECT_EQ(a.rows(), 48u);
}

TEST(Jsa, SchmidtOfSeparableGaussianIsNearOne) {
  // Pump much broader than the resonances: JSA ≈ L_s(ν_s) L_i(ν_i),
  // separable -> purity ~ 1.
  sfwm::JsaParams p;
  p.pump_bandwidth_hz = 10e9;
  p.ring_linewidth_s_hz = 100e6;
  p.ring_linewidth_i_hz = 100e6;
  p.grid_points = 64;
  p.span_linewidths = 12.0;
  // Span follows the pump scale; shrink it so the Lorentzians are resolved.
  const auto result = sfwm::schmidt_decompose(sfwm::sample_jsa(p));
  EXPECT_GT(result.purity, 0.9);
}

TEST(Jsa, NarrowPumpEntanglesSpectrum) {
  // Pump much narrower than the resonances: strong spectral correlation,
  // low heralded purity, Schmidt number > 1.
  const double p_narrow = sfwm::heralded_purity(20e6, 800e6, 64);
  const double p_matched = sfwm::heralded_purity(800e6, 800e6, 64);
  EXPECT_LT(p_narrow, p_matched);
  EXPECT_GT(p_matched, 0.80);  // matched bandwidth -> near-pure photons
}

TEST(Jsa, PurityMaximizedNearMatchedBandwidth) {
  // Scan pump bandwidth; purity should peak in the vicinity of the ring
  // linewidth (the paper's Sec. V requirement).
  const double lw = 800e6;
  const double p_small = sfwm::heralded_purity(0.1 * lw, lw);
  const double p_match = sfwm::heralded_purity(1.5 * lw, lw);
  EXPECT_GT(p_match, p_small);
}

TEST(Jsa, SchmidtCoefficientsNormalized) {
  sfwm::JsaParams p;
  p.pump_bandwidth_hz = 400e6;
  p.ring_linewidth_s_hz = 800e6;
  p.ring_linewidth_i_hz = 800e6;
  const auto r = sfwm::schmidt_decompose(sfwm::sample_jsa(p));
  double sum2 = 0;
  for (double lam : r.coefficients) sum2 += lam * lam;
  EXPECT_NEAR(sum2, 1.0, 1e-9);
  EXPECT_GE(r.schmidt_number, 1.0 - 1e-9);
  EXPECT_NEAR(r.purity * r.schmidt_number, 1.0, 1e-9);
}

TEST(Jsa, InvalidParamsThrow) {
  sfwm::JsaParams p;
  EXPECT_THROW(sfwm::sample_jsa(p), std::invalid_argument);
  p.pump_bandwidth_hz = 1e8;
  p.ring_linewidth_s_hz = 1e8;
  p.ring_linewidth_i_hz = 1e8;
  p.grid_points = 4;
  EXPECT_THROW(sfwm::sample_jsa(p), std::invalid_argument);
}

// ----------------------------------------------------------- pair source

TEST(CwPairSource, RateScalesQuadraticallyWithPower) {
  const auto ring = photonics::heralded_source_device();
  const sfwm::CwPairSource s1(ring, cw_pump(ring, 5e-3), 5);
  const sfwm::CwPairSource s2(ring, cw_pump(ring, 10e-3), 5);
  EXPECT_NEAR(s2.pair_rate_hz(1) / s1.pair_rate_hz(1), 4.0, 1e-6);
}

TEST(CwPairSource, PaperOperatingPointRatesAreRealistic) {
  // 15 mW self-locked pump: on-chip rates should sit in the hundreds of Hz
  // so that detected rates land at 14-29 Hz with ~20% collection.
  const auto ring = photonics::heralded_source_device();
  const sfwm::CwPairSource src(ring, cw_pump(ring, 15e-3), 5);
  for (int k = 1; k <= 5; ++k) {
    EXPECT_GT(src.pair_rate_hz(k), 100.0) << "k=" << k;
    EXPECT_LT(src.pair_rate_hz(k), 5000.0) << "k=" << k;
  }
}

TEST(CwPairSource, CoherenceTimeMatchesLinewidth) {
  const auto ring = photonics::heralded_source_device();
  const sfwm::CwPairSource src(ring, cw_pump(ring, 15e-3), 5);
  EXPECT_NEAR(src.coherence_time_s(),
              1.0 / (photonics::pi * src.photon_linewidth_hz()), 1e-15);
  // ~100 MHz linewidth -> ~3 ns coherence time.
  EXPECT_NEAR(src.coherence_time_s(), 3.2e-9, 0.5e-9);
}

TEST(CwPairSource, MultiPairParameterIsTiny) {
  // CW pumping at these rates: multi-pair emission is negligible, which is
  // why Sec. II CAR is dark-count-limited rather than μ-limited.
  const auto ring = photonics::heralded_source_device();
  const sfwm::CwPairSource src(ring, cw_pump(ring, 15e-3), 5);
  EXPECT_LT(src.mean_pairs_per_coherence_time(1), 1e-4);
}

TEST(CwPairSource, RatesFallOffAwayFromPump) {
  const auto ring = photonics::heralded_source_device();
  const sfwm::CwPairSource src(ring, cw_pump(ring, 15e-3), 40);
  EXPECT_LE(src.pair_rate_hz(40), src.pair_rate_hz(1));
}

TEST(CwPairSource, BadChannelThrows) {
  const auto ring = photonics::heralded_source_device();
  const sfwm::CwPairSource src(ring, cw_pump(ring, 15e-3), 5);
  EXPECT_THROW(src.pair_rate_hz(0), std::out_of_range);
  EXPECT_THROW(src.pair_rate_hz(6), std::out_of_range);
}

TEST(EscapeEfficiency, InPhysicalRange) {
  const auto ring = photonics::heralded_source_device();
  const double esc = sfwm::drop_port_escape_efficiency(ring);
  EXPECT_GT(esc, 0.05);
  EXPECT_LT(esc, 0.5);  // symmetric add-drop: < 1/2
}

TEST(PulsedPairSource, MuScalesQuadraticallyWithPulseEnergy) {
  const auto ring = photonics::entanglement_device();
  auto pump = [&](double avg_power) {
    photonics::DoublePulsePump p;
    p.frequency_hz = photonics::pump_resonance_hz(ring);
    const double lw = ring.linewidth_hz(p.frequency_hz, Polarization::TE);
    p.train.pulse_fwhm_s = 2.0 * std::log(2.0) / (photonics::pi * lw);
    p.train.repetition_rate_hz = 16.8e6;
    p.train.average_power_w = avg_power;
    p.bin_separation_s = 5.0 * p.train.pulse_fwhm_s;
    return p;
  };
  const sfwm::PulsedPairSource s1(ring, pump(1e-3), 5);
  const sfwm::PulsedPairSource s2(ring, pump(2e-3), 5);
  EXPECT_NEAR(s2.mean_pairs_per_pulse(1) / s1.mean_pairs_per_pulse(1), 4.0, 1e-6);
}

TEST(PulsedPairSource, PumpBandwidthIsTransformLimited) {
  const auto ring = photonics::entanglement_device();
  photonics::DoublePulsePump p;
  p.frequency_hz = photonics::pump_resonance_hz(ring);
  p.train.pulse_fwhm_s = 500e-12;
  p.train.repetition_rate_hz = 16.8e6;
  p.train.average_power_w = 1e-3;
  p.bin_separation_s = 5e-9;
  const sfwm::PulsedPairSource src(ring, p, 3);
  EXPECT_NEAR(src.pump_bandwidth_hz() * p.train.pulse_fwhm_s, 0.441, 0.01);
}

// ----------------------------------------------------------- type-II/OPO

TEST(Type2Source, GeneratesCrossPolarizedPairs) {
  const auto ring = photonics::type2_device();
  photonics::CrossPolarizedPump pump;
  pump.power_te_w = 1e-3;
  pump.power_tm_w = 1e-3;
  pump.frequency_te_hz = ring.nearest_resonance_hz(photonics::itu_anchor_hz, Polarization::TE);
  pump.frequency_tm_hz = ring.nearest_resonance_hz(pump.frequency_te_hz, Polarization::TM);
  const sfwm::Type2PairSource src(ring, pump, 3);
  EXPECT_GT(src.pair_rate_hz(1), 0.1);
  EXPECT_GT(src.stimulated_suppression_db(), 20.0);
}

TEST(Type2Source, RateScalesWithPumpProduct) {
  const auto ring = photonics::type2_device();
  auto make = [&](double p_te, double p_tm) {
    photonics::CrossPolarizedPump pump;
    pump.power_te_w = p_te;
    pump.power_tm_w = p_tm;
    pump.frequency_te_hz =
        ring.nearest_resonance_hz(photonics::itu_anchor_hz, Polarization::TE);
    pump.frequency_tm_hz =
        ring.nearest_resonance_hz(pump.frequency_te_hz, Polarization::TM);
    return sfwm::Type2PairSource(ring, pump, 3);
  };
  const double r11 = make(1e-3, 1e-3).pair_rate_hz(1);
  const double r22 = make(2e-3, 2e-3).pair_rate_hz(1);
  const double r41 = make(4e-3, 1e-3).pair_rate_hz(1);
  EXPECT_NEAR(r22 / r11, 4.0, 1e-6);
  EXPECT_NEAR(r41 / r11, 4.0, 1e-6);  // geometric mean: √(4·1) squared
}

TEST(OpoModel, ThresholdNearPaperValue) {
  const sfwm::OpoModel opo(photonics::type2_device());
  EXPECT_NEAR(opo.threshold_w(), 14e-3, 5e-3);
}

TEST(OpoModel, QuadraticBelowLinearAbove) {
  const sfwm::OpoModel opo(photonics::type2_device());
  const double pth = opo.threshold_w();

  // Below threshold: doubling pump quadruples output.
  const double p1 = opo.output_power_w(pth / 8);
  const double p2 = opo.output_power_w(pth / 4);
  EXPECT_NEAR(p2 / p1, 4.0, 1e-9);

  // Above threshold: linear growth (equal increments).
  const double a1 = opo.output_power_w(1.5 * pth);
  const double a2 = opo.output_power_w(2.0 * pth);
  const double a3 = opo.output_power_w(2.5 * pth);
  EXPECT_NEAR(a2 - a1, a3 - a2, 1e-12);
  EXPECT_TRUE(opo.oscillating(2 * pth));
  EXPECT_FALSE(opo.oscillating(pth / 2));
}

TEST(OpoModel, OutputContinuousAtThreshold) {
  // The curve is value-continuous at threshold: the above-threshold branch
  // starts from the spontaneous level and adds slope x (P − P_th).
  const sfwm::OpoModel opo(photonics::type2_device());
  const double pth = opo.threshold_w();
  const double at = opo.output_power_w(pth);
  const double eps = 1e-6 * pth;
  const double above = opo.output_power_w(pth + eps);
  // Just above threshold the excess over the spontaneous level must equal
  // slope x eps (slope defaults to 0.12).
  EXPECT_NEAR(above - at, 0.12 * eps, 0.01 * 0.12 * eps);
}

TEST(OpoModel, AboveThresholdDominatesSpontaneous) {
  const sfwm::OpoModel opo(photonics::type2_device());
  const double pth = opo.threshold_w();
  EXPECT_GT(opo.output_power_w(2 * pth), 1e4 * opo.output_power_w(0.99 * pth));
}

}  // namespace
