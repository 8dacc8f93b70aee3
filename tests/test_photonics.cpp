// Tests for the classical photonics substrate (S3): materials, waveguide,
// microring, comb grid, pumps, device presets.

#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "qfc/linalg/error.hpp"
#include "qfc/photonics/comb_grid.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/photonics/device_presets.hpp"
#include "qfc/photonics/material.hpp"
#include "qfc/photonics/microring.hpp"
#include "qfc/photonics/pump.hpp"
#include "qfc/photonics/self_locked.hpp"
#include "qfc/photonics/waveguide.hpp"

namespace {

using namespace qfc::photonics;

constexpr double k1550nm = 1550e-9;

TEST(Constants, WavelengthFrequencyRoundTrip) {
  const double f = frequency_from_wavelength(k1550nm);
  EXPECT_NEAR(wavelength_from_frequency(f), k1550nm, 1e-18);
  EXPECT_NEAR(f, 193.4e12, 0.2e12);
}

TEST(Constants, BandClassification) {
  EXPECT_EQ(classify_band(frequency_from_wavelength(1500e-9)), TelecomBand::S);
  EXPECT_EQ(classify_band(frequency_from_wavelength(1550e-9)), TelecomBand::C);
  EXPECT_EQ(classify_band(frequency_from_wavelength(1600e-9)), TelecomBand::L);
  EXPECT_EQ(classify_band(frequency_from_wavelength(1300e-9)), TelecomBand::Outside);
}

TEST(Material, HydexIndexNearPublishedValue) {
  EXPECT_NEAR(hydex().index(k1550nm), 1.70, 0.02);
}

TEST(Material, NormalDispersionInTelecomWindow) {
  // n decreasing with wavelength.
  EXPECT_GT(hydex().index(1500e-9), hydex().index(1600e-9));
}

TEST(Material, InvalidWavelengthThrows) {
  EXPECT_THROW(hydex().index(0.0), std::invalid_argument);
  EXPECT_THROW(hydex().index(-1e-6), std::invalid_argument);
  EXPECT_THROW(hydex().index(50e-9), std::invalid_argument);  // below UV pole
}

TEST(Waveguide, EffectiveIndexBelowBulk) {
  const Waveguide wg({1.5e-6, 1.45e-6}, hydex());
  const double f = frequency_from_wavelength(k1550nm);
  EXPECT_LT(wg.effective_index(f, Polarization::TE), hydex().index(k1550nm));
  EXPECT_GT(wg.effective_index(f, Polarization::TE), 1.0);
}

TEST(Waveguide, BirefringenceSignFollowsGeometry) {
  const double f = frequency_from_wavelength(k1550nm);
  // Wider than tall: TE (confined by width) pays a smaller penalty -> n_TE > n_TM.
  const auto birefringence = [f](const Waveguide& wg) {
    return wg.effective_index(f, Polarization::TE) - wg.effective_index(f, Polarization::TM);
  };
  const Waveguide wide({1.6e-6, 1.3e-6}, hydex());
  EXPECT_GT(birefringence(wide), 0.0);
  // Square: zero birefringence.
  const Waveguide square({1.5e-6, 1.5e-6}, hydex());
  EXPECT_NEAR(birefringence(square), 0.0, 1e-12);
}

TEST(Waveguide, GroupIndexExceedsEffectiveIndex) {
  const Waveguide wg({1.5e-6, 1.5e-6}, hydex());
  const double f = frequency_from_wavelength(k1550nm);
  for (auto pol : {Polarization::TE, Polarization::TM})
    EXPECT_GT(wg.group_index(f, pol), wg.effective_index(f, pol));
}

TEST(Waveguide, BadGeometryThrows) {
  EXPECT_THROW(Waveguide({0.0, 1e-6}, hydex()), std::invalid_argument);
  EXPECT_THROW(Waveguide({1e-6, -1e-6}, hydex()), std::invalid_argument);
}

class MicroringFixture : public ::testing::Test {
 protected:
  MicroringFixture()
      : wg_({1.5e-6, 1.5e-6}, hydex()),
        ring_(wg_, 135e-6, kT, kT, 6.0) {}

  /// The add-drop transfer functions of the fixture ring (t1 = t2 = kT):
  /// κ²/|1 − t² a e^{iφ}|² times 1 (intracavity build-up) or κ² a (drop
  /// power), with the round-trip phase φ = 2πν n_eff L / c. The analytic
  /// linewidth and peak build-up are checked against them.
  double resonance_factor(double nu) const {
    const double a = ring_.round_trip_amplitude();
    const double phi = 2.0 * pi * nu * wg_.effective_index(nu, Polarization::TE) *
                       ring_.circumference_m() / speed_of_light_m_per_s;
    return (1.0 - kT * kT) / std::norm(1.0 - kT * kT * a * std::polar(1.0, phi));
  }
  double field_enhancement(double nu) const { return resonance_factor(nu); }
  double drop_power(double nu) const {
    return (1.0 - kT * kT) * ring_.round_trip_amplitude() * resonance_factor(nu);
  }

  static constexpr double kT = 0.9995;
  Waveguide wg_;
  MicroringResonator ring_;
  const double f0_ = frequency_from_wavelength(k1550nm);
};

TEST_F(MicroringFixture, FsrNearDesign) {
  // 135 µm radius with n_g ~ 1.77 -> FSR ~ 200 GHz.
  const double fsr = ring_.fsr_hz(f0_, Polarization::TE);
  EXPECT_NEAR(fsr, 200e9, 20e9);
}

TEST_F(MicroringFixture, ResonanceSatisfiesResonanceCondition) {
  const int m = ring_.mode_number_near(f0_, Polarization::TE);
  const double nu = ring_.resonance_frequency_hz(m, Polarization::TE);
  const double lhs = wg_.effective_index(nu, Polarization::TE) *
                     ring_.circumference_m() * nu / speed_of_light_m_per_s;
  EXPECT_NEAR(lhs, static_cast<double>(m), 1e-6);
}

TEST_F(MicroringFixture, NearestResonanceIsWithinHalfFsr) {
  const double nu = ring_.nearest_resonance_hz(f0_, Polarization::TE);
  const double fsr = ring_.fsr_hz(f0_, Polarization::TE);
  EXPECT_LE(std::abs(nu - f0_), fsr / 2 * 1.01);
}

TEST_F(MicroringFixture, LinewidthMatchesFinesseDefinition) {
  const double fsr = ring_.fsr_hz(f0_, Polarization::TE);
  EXPECT_NEAR(ring_.linewidth_hz(f0_, Polarization::TE), fsr / ring_.finesse(),
              1e-3 * fsr / ring_.finesse());
}

TEST_F(MicroringFixture, HalfWidthPointIsHalfDropPower) {
  const double nu_res = ring_.nearest_resonance_hz(f0_, Polarization::TE);
  const double lw = ring_.linewidth_hz(nu_res, Polarization::TE);
  const double on = drop_power(nu_res);
  const double half = drop_power(nu_res + lw / 2);
  EXPECT_NEAR(half / on, 0.5, 0.05);
}

TEST_F(MicroringFixture, FieldEnhancementPeaksOnResonance) {
  const double nu_res = ring_.nearest_resonance_hz(f0_, Polarization::TE);
  const double lw = ring_.linewidth_hz(nu_res, Polarization::TE);
  const double on = field_enhancement(nu_res);
  EXPECT_GT(on, 1.0);  // build-up
  EXPECT_NEAR(on, ring_.peak_field_enhancement(), 0.02 * on);
  EXPECT_GT(on, field_enhancement(nu_res + 10 * lw) * 50);
}

TEST_F(MicroringFixture, ThermalShiftIsNegativeGHzPerKelvin) {
  const double shift = ring_.thermal_shift_hz_per_K(f0_, Polarization::TE);
  EXPECT_LT(shift, 0.0);
  EXPECT_GT(std::abs(shift), 0.1e9);
  EXPECT_LT(std::abs(shift), 10e9);
}

TEST(Microring, InvalidParamsThrow) {
  const Waveguide wg({1.5e-6, 1.5e-6}, hydex());
  EXPECT_THROW(MicroringResonator(wg, -1.0, 0.99, 0.99, 6.0), std::invalid_argument);
  EXPECT_THROW(MicroringResonator(wg, 1e-4, 1.2, 0.99, 6.0), std::invalid_argument);
  EXPECT_THROW(MicroringResonator(wg, 1e-4, 0.99, 0.99, -6.0), std::invalid_argument);
}

TEST(Microring, LorentzianAmplitudeHalfWidth) {
  const auto amp0 = MicroringResonator::lorentzian_amplitude(0.0, 100e6);
  EXPECT_NEAR(std::abs(amp0), 1.0, 1e-12);
  const auto amp_hw = MicroringResonator::lorentzian_amplitude(50e6, 100e6);
  EXPECT_NEAR(std::norm(amp_hw), 0.5, 1e-12);  // intensity half at half width
}

TEST(Microring, DesignCouplingHitsTargetLinewidth) {
  const Waveguide wg({1.5e-6, 1.5e-6}, hydex());
  const double radius = 135e-6;
  for (double target : {100e6, 800e6, 2e9}) {
    const double t = design_symmetric_coupling_for_linewidth(wg, radius, 6.0, target,
                                                             itu_anchor_hz);
    const MicroringResonator ring(wg, radius, t, t, 6.0);
    EXPECT_NEAR(ring.linewidth_hz(itu_anchor_hz, Polarization::TE), target,
                0.02 * target);
  }
}

TEST(Microring, DesignCouplingRejectsImpossibleTarget) {
  const Waveguide wg({1.5e-6, 1.5e-6}, hydex());
  // 1 kHz linewidth is far beyond the loss limit of 6 dB/m.
  EXPECT_THROW(design_symmetric_coupling_for_linewidth(wg, 135e-6, 6.0, 1e3,
                                                       itu_anchor_hz),
               qfc::NumericalError);
}

TEST(CombGrid, ChannelsAndPairsSymmetric) {
  const CombGrid grid(193.1e12, 200e9, 5);
  const auto p3 = grid.pair(3);
  EXPECT_EQ(p3.signal.offset, 3);
  EXPECT_EQ(p3.idler.offset, -3);
  EXPECT_NEAR(p3.signal.frequency_hz + p3.idler.frequency_hz, 2 * 193.1e12, 1.0);
  EXPECT_EQ(grid.pairs().size(), 5u);
}

TEST(CombGrid, RejectsBadArguments) {
  EXPECT_THROW(CombGrid(193.1e12, 200e9, 0), std::invalid_argument);
  EXPECT_THROW(CombGrid(-1.0, 200e9, 3), std::invalid_argument);
  const CombGrid g(193.1e12, 200e9, 3);
  EXPECT_THROW(g.channel(0), std::invalid_argument);
  EXPECT_THROW(g.channel(4), std::out_of_range);
  EXPECT_THROW(g.pair(0), std::out_of_range);
}

TEST(CombGrid, ItuChannelNumber) {
  EXPECT_EQ(CombGrid::itu_channel_number(193.1e12), 31);
  EXPECT_EQ(CombGrid::itu_channel_number(190.0e12), 0);
}

TEST(CombGrid, WideGridStaysInTelecomBands) {
  // The paper's comb spans S, C and L with 200 GHz channels: ±14 channels
  // from 193.1 THz stays within [1460, 1625] nm.
  const CombGrid grid(193.1e12, 200e9, 14);
  for (const auto& pair : grid.pairs()) {
    EXPECT_NE(pair.signal.band, TelecomBand::Outside) << pair.signal.offset;
    EXPECT_NE(pair.idler.band, TelecomBand::Outside) << pair.idler.offset;
  }
}

TEST(Pump, ValidationCatchesBadConfigs) {
  CwPump cw;
  cw.power_w = -1;
  cw.frequency_hz = 193e12;
  EXPECT_THROW(cw.validate(), std::invalid_argument);

  PulseTrain train;
  EXPECT_THROW(train.validate(), std::invalid_argument);

  DoublePulsePump dp;
  dp.train.repetition_rate_hz = 16.8e6;
  dp.train.pulse_fwhm_s = 1e-9;
  dp.train.average_power_w = 1e-3;
  dp.frequency_hz = 193e12;
  dp.bin_separation_s = 2e-9;  // < 4x pulse width: bins overlap
  EXPECT_THROW(dp.validate(), std::invalid_argument);
  dp.bin_separation_s = 5e-9;
  EXPECT_NO_THROW(dp.validate());
}

TEST(DevicePresets, HeraldedDeviceLinewidth) {
  const auto ring = heralded_source_device();
  const double lw = ring.linewidth_hz(itu_anchor_hz, Polarization::TE);
  EXPECT_NEAR(lw, 110e6, 5e6);
  EXPECT_NEAR(ring.fsr_hz(itu_anchor_hz, Polarization::TE), 200e9, 2e9);
}

TEST(DevicePresets, EntanglementDeviceQ) {
  const auto ring = entanglement_device();
  EXPECT_NEAR(ring.loaded_q(itu_anchor_hz, Polarization::TE), 235000, 10000);
}

TEST(DevicePresets, Type2DeviceHasBirefringentGrids) {
  const auto ring = type2_device();
  const double te = ring.nearest_resonance_hz(itu_anchor_hz, Polarization::TE);
  const double tm = ring.nearest_resonance_hz(te, Polarization::TM);
  // The TE and TM grids must be offset by much more than a linewidth.
  const double lw = ring.linewidth_hz(te, Polarization::TE);
  EXPECT_GT(std::abs(tm - te), 10 * lw);

  const auto square = type2_device_no_offset();
  const double te2 = square.nearest_resonance_hz(itu_anchor_hz, Polarization::TE);
  const double tm2 = square.nearest_resonance_hz(te2, Polarization::TM);
  EXPECT_LT(std::abs(tm2 - te2), lw * 0.1);
}

TEST(DevicePresets, PumpResonanceNearItuAnchor) {
  const auto ring = heralded_source_device();
  EXPECT_NEAR(pump_resonance_hz(ring), itu_anchor_hz, 100e9);
}

TEST(SelfLockedLoop, ModeSpacingAndDetuningBounds) {
  const SelfLockedLoop loop(10.0, 1.468);
  EXPECT_NEAR(loop.loop_fsr_hz(), 20.4e6, 0.3e6);
  // The lasing detuning is always within half a loop FSR, for any drift.
  for (double drift_hz : {0.0, 3e6, 47e6, 1.1e9, -5.5e9}) {
    const double det = loop.lasing_detuning_hz(193.1e12 + drift_hz);
    EXPECT_LE(std::abs(det), loop.max_detuning_hz() + 1.0) << "drift " << drift_hz;
  }
}

TEST(SelfLockedLoop, RejectsBadParameters) {
  EXPECT_THROW(SelfLockedLoop(-1.0, 1.468), std::invalid_argument);
  EXPECT_THROW(SelfLockedLoop(10.0, 0.5), std::invalid_argument);
  const SelfLockedLoop loop;
  EXPECT_THROW(loop.lasing_detuning_hz(-1.0), std::invalid_argument);
}

}  // namespace
