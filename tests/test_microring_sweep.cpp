// Parameterized device-physics sweeps: coupling regimes, Q targets, loss
// budgets, geometry scaling — the microring model must stay self-consistent
// across the whole design space the paper's devices live in.

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/linalg/error.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/photonics/material.hpp"
#include "qfc/photonics/microring.hpp"
#include "qfc/sfwm/pair_source.hpp"

namespace {

using namespace qfc::photonics;

Waveguide standard_waveguide() { return Waveguide({1.5e-6, 1.5e-6}, hydex()); }

// ---------------------------------------------------- linewidth targets

class LinewidthDesignSweep : public ::testing::TestWithParam<double> {};

TEST_P(LinewidthDesignSweep, DesignRoundTripAndQConsistency) {
  const double target = GetParam();
  const Waveguide wg = standard_waveguide();
  const double radius = 135e-6;
  const double t =
      design_symmetric_coupling_for_linewidth(wg, radius, 6.0, target, itu_anchor_hz);
  ASSERT_GT(t, 0.9);
  ASSERT_LT(t, 1.0);
  const MicroringResonator ring(wg, radius, t, t, 6.0);

  // Achieved linewidth within 2%.
  const double lw = ring.linewidth_hz(itu_anchor_hz, Polarization::TE);
  EXPECT_NEAR(lw, target, 0.02 * target);

  // Q = nu / linewidth by definition.
  EXPECT_NEAR(ring.loaded_q(itu_anchor_hz, Polarization::TE), itu_anchor_hz / lw,
              0.01 * itu_anchor_hz / lw);

  // Narrower target -> higher finesse -> higher peak enhancement.
  EXPECT_GT(ring.peak_field_enhancement(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Targets, LinewidthDesignSweep,
                         ::testing::Values(50e6, 80e6, 110e6, 200e6, 400e6, 820e6,
                                           1.5e9, 3e9));

// ------------------------------------------------------ coupling regimes

class CouplingSweep : public ::testing::TestWithParam<double> {};

TEST_P(CouplingSweep, EscapeEfficiencyStaysPhysical) {
  const double t = GetParam();
  const Waveguide wg = standard_waveguide();
  const MicroringResonator ring(wg, 135e-6, t, t, 6.0);

  // Escape efficiency stays in (0, 1/2] for symmetric couplers.
  const double esc = qfc::sfwm::drop_port_escape_efficiency(ring);
  EXPECT_GT(esc, 0.0);
  EXPECT_LE(esc, 0.5 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SelfCoupling, CouplingSweep,
                         ::testing::Values(0.9, 0.95, 0.99, 0.995, 0.999, 0.9995,
                                           0.9999));

TEST(CouplingRegimes, StrongerCouplingBroadensLine) {
  const Waveguide wg = standard_waveguide();
  double prev_lw = 0;
  for (double t : {0.9999, 0.999, 0.99, 0.95}) {
    const MicroringResonator ring(wg, 135e-6, t, t, 6.0);
    const double lw = ring.linewidth_hz(itu_anchor_hz, Polarization::TE);
    EXPECT_GT(lw, prev_lw) << "t=" << t;
    prev_lw = lw;
  }
}

// ------------------------------------------------------------ loss budget

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, RoundTripAmplitudeBelowOne) {
  const double loss_db_per_m = GetParam();
  const Waveguide wg = standard_waveguide();
  const MicroringResonator ring(wg, 135e-6, 0.999, 0.999, loss_db_per_m);
  // Round-trip amplitude in (0, 1).
  EXPECT_GT(ring.round_trip_amplitude(), 0.0);
  EXPECT_LT(ring.round_trip_amplitude(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(PropagationLoss, LossSweep,
                         ::testing::Values(1.0, 6.0, 20.0, 60.0));

// ------------------------------------------------------- geometry scaling

class RadiusSweep : public ::testing::TestWithParam<double> {};

TEST_P(RadiusSweep, FsrInverseInRadius) {
  const double radius = GetParam();
  const Waveguide wg = standard_waveguide();
  const MicroringResonator ring(wg, radius, 0.999, 0.999, 6.0);
  const MicroringResonator twice(wg, 2 * radius, 0.999, 0.999, 6.0);
  const double f1 = ring.fsr_hz(itu_anchor_hz, Polarization::TE);
  const double f2 = twice.fsr_hz(itu_anchor_hz, Polarization::TE);
  EXPECT_NEAR(f1 / f2, 2.0, 0.01);
  // Resonance spacing equals FSR.
  const double r1 = ring.nearest_resonance_hz(itu_anchor_hz, Polarization::TE);
  const int m = ring.mode_number_near(r1, Polarization::TE);
  const double r2 = ring.resonance_frequency_hz(m + 1, Polarization::TE);
  EXPECT_NEAR(r2 - r1, f1, 0.02 * f1);
}

INSTANTIATE_TEST_SUITE_P(Radii, RadiusSweep,
                         ::testing::Values(50e-6, 135e-6, 270e-6, 500e-6));

// ----------------------------------------------- birefringence trim sweep

class TrimSweep : public ::testing::TestWithParam<double> {};

TEST_P(TrimSweep, TrimShiftsTmGridButNotFsr) {
  const double trim = GetParam();
  const Waveguide plain({1.5e-6, 1.5e-6}, hydex(), 0.012, 0.0);
  const Waveguide trimmed({1.5e-6, 1.5e-6}, hydex(), 0.012, trim);
  const MicroringResonator r0(plain, 135e-6, 0.999, 0.999, 6.0);
  const MicroringResonator r1(trimmed, 135e-6, 0.999, 0.999, 6.0);

  // TE untouched.
  EXPECT_NEAR(r0.nearest_resonance_hz(itu_anchor_hz, Polarization::TE),
              r1.nearest_resonance_hz(itu_anchor_hz, Polarization::TE), 1.0);

  // TM FSR unchanged (the trim is linear in λ).
  const double fsr0 = r0.fsr_hz(itu_anchor_hz, Polarization::TM);
  const double fsr1 = r1.fsr_hz(itu_anchor_hz, Polarization::TM);
  EXPECT_NEAR(fsr1, fsr0, 1e-4 * fsr0);

  // TM index shifted proportionally to the trim.
  const double dn = trimmed.effective_index(itu_anchor_hz, Polarization::TM) -
                    plain.effective_index(itu_anchor_hz, Polarization::TM);
  EXPECT_NEAR(dn, trim * (wavelength_from_frequency(itu_anchor_hz) / 1.55e-6),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Trims, TrimSweep,
                         ::testing::Values(-3e-3, -1.5e-3, -5e-4, 5e-4, 1.5e-3));

// -------------------------------------------------------- thermal physics

TEST(Thermal, ShiftScalesWithFrequency) {
  const Waveguide wg = standard_waveguide();
  const MicroringResonator ring(wg, 135e-6, 0.999, 0.999, 6.0);
  const double s1 = ring.thermal_shift_hz_per_K(185e12, Polarization::TE);
  const double s2 = ring.thermal_shift_hz_per_K(196e12, Polarization::TE);
  EXPECT_LT(s2, s1);  // both negative; higher frequency shifts more
  EXPECT_NEAR(s2 / s1, 196.0 / 185.0, 0.02);
}

TEST(Thermal, MilliKelvinMovesFractionOfLinewidth) {
  // The stability experiment's premise: mK-scale drift ~ MHz shifts,
  // comparable to the 110 MHz linewidth.
  const Waveguide wg = standard_waveguide();
  const MicroringResonator ring(wg, 135e-6, 0.9995, 0.9995, 6.0);
  const double shift_per_mk =
      std::abs(ring.thermal_shift_hz_per_K(itu_anchor_hz, Polarization::TE)) * 1e-3;
  EXPECT_GT(shift_per_mk, 0.1e6);
  EXPECT_LT(shift_per_mk, 10e6);
}

}  // namespace
