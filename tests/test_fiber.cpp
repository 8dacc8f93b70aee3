// Tests for the fiber distribution substrate.

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/fiber/fiber_channel.hpp"

namespace {

using qfc::fiber::FiberChannel;
using qfc::fiber::FiberParams;

FiberChannel span(double km) {
  FiberParams p;
  p.length_m = km * 1000;
  return FiberChannel(p);
}

TEST(Fiber, TransmissionFollowsAttenuation) {
  // 0.2 dB/km: 50 km -> 10 dB -> 10% transmission.
  EXPECT_NEAR(span(50).transmission(), 0.1, 1e-12);
  EXPECT_NEAR(span(0).transmission(), 1.0, 1e-12);
  EXPECT_NEAR(span(100).transmission(), 0.01, 1e-12);
}

TEST(Fiber, TransmissionMultiplies) {
  EXPECT_NEAR(span(25).transmission() * span(25).transmission(), span(50).transmission(),
              1e-12);
}

TEST(Fiber, NarrowbandPhotonBroadeningIsTiny) {
  // 110 MHz photon at 1550 nm: Δλ ≈ 0.88 fm -> sub-ps spread even at 100 km.
  const double dt = span(100).pulse_broadening_s(1550e-9, 110e6);
  EXPECT_LT(dt, 5e-12);
  EXPECT_GT(dt, 1e-15);
}

TEST(Fiber, TimebinVisibilityFactorNearUnityForCombPhotons) {
  const double f = span(100).timebin_visibility_factor(1550e-9, 800e6, 3e-9);
  EXPECT_GT(f, 0.999);
  // A hypothetical 1 THz-wide photon would smear across the bins.
  const double broad = span(100).timebin_visibility_factor(1550e-9, 1e12, 3e-9);
  EXPECT_LT(broad, 0.1);
}

TEST(Fiber, MonotoneDegradationWithLength) {
  double prev = 1.0;
  for (double km : {10.0, 50.0, 100.0, 200.0}) {
    const double t = span(km).transmission();
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(Fiber, RejectsNegativeLength) {
  FiberParams p;
  p.length_m = -1;
  EXPECT_THROW(FiberChannel{p}, std::invalid_argument);
}

}  // namespace
