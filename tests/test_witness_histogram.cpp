// Tests for the three-peak arrival-time histogram MC.

#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/timebin/arrival_histogram.hpp"

namespace {

using namespace qfc;
using quantum::bell_phi;
using quantum::DensityMatrix;
using quantum::werner_phi;

// ------------------------------------------------- arrival histogram MC

std::uint64_t total(const timebin::ArrivalHistogram& h) {
  return std::accumulate(h.counts.begin(), h.counts.end(), std::uint64_t{0});
}

TEST(ArrivalHistogram, OuterPeaksForbiddenForPhiState) {
  rng::Xoshiro256 g(71);
  const auto h = timebin::simulate_arrival_histogram(DensityMatrix{bell_phi()}, 0.3,
                                                     0.4, 200000, g);
  EXPECT_EQ(h.counts[0], 0u);
  EXPECT_EQ(h.counts[4], 0u);
  EXPECT_EQ(total(h), 200000u);
}

TEST(ArrivalHistogram, QuadratureGivesOneTwoOneSignature) {
  rng::Xoshiro256 g(72);
  // α + β = π/2: interference term vanishes, central peak = 2x sides.
  const auto h = timebin::simulate_arrival_histogram(
      DensityMatrix{bell_phi()}, 0.0, photonics::pi / 2.0, 400000, g);
  EXPECT_NEAR(h.central_to_side_ratio(), 2.0, 0.06);
  // Sides symmetric.
  EXPECT_NEAR(static_cast<double>(h.counts[1]) / static_cast<double>(h.counts[3]),
              1.0, 0.05);
}

TEST(ArrivalHistogram, FringeExtremaModulateCentralPeakOnly) {
  rng::Xoshiro256 g(73);
  const DensityMatrix rho{bell_phi()};
  const auto at_max = timebin::simulate_arrival_histogram(rho, 0.0, 0.0, 400000, g);
  const auto at_min =
      timebin::simulate_arrival_histogram(rho, 0.0, photonics::pi, 400000, g);
  EXPECT_NEAR(at_max.central_to_side_ratio(), 3.0, 0.1);
  EXPECT_NEAR(at_min.central_to_side_ratio(), 1.0, 0.05);
  // Side peaks carry the same share in both settings.
  const double side_frac_max =
      static_cast<double>(at_max.counts[1] + at_max.counts[3]) /
      static_cast<double>(total(at_max));
  const double side_frac_min =
      static_cast<double>(at_min.counts[1] + at_min.counts[3]) /
      static_cast<double>(total(at_min));
  EXPECT_GT(side_frac_min, side_frac_max);  // same absolute rate, smaller total
}

TEST(ArrivalHistogram, WhiteNoisePopulatesOuterPeaks) {
  rng::Xoshiro256 g(74);
  const auto h = timebin::simulate_arrival_histogram(werner_phi(0.5), 0.0, 0.0,
                                                     400000, g);
  EXPECT_GT(h.counts[0], 1000u);  // |SL>/|LS> components now allowed
  EXPECT_GT(h.counts[4], 1000u);
}

TEST(ArrivalHistogram, RejectsBadInput) {
  rng::Xoshiro256 g(75);
  EXPECT_THROW(
      timebin::simulate_arrival_histogram(DensityMatrix(quantum::Dims{2}), 0, 0, 10, g),
      std::invalid_argument);
  EXPECT_THROW(
      timebin::simulate_arrival_histogram(DensityMatrix{bell_phi()}, 0, 0, 0, g),
      std::invalid_argument);
}

}  // namespace
