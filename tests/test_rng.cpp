// Unit + statistical tests for the RNG substrate (S2). Statistical checks
// use wide (5+ sigma) tolerances so they are deterministic in practice.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "qfc/rng/distributions.hpp"
#include "qfc/rng/ou_process.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace {

using qfc::rng::Xoshiro256;

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 g(7);
  double mn = 1, mx = 0, sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = g.uniform();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_LT(mn, 0.001);
  EXPECT_GT(mx, 0.999);
}

TEST(Xoshiro, UniformIntBounds) {
  Xoshiro256 g(8);
  std::vector<int> histo(10, 0);
  for (int i = 0; i < 100000; ++i) ++histo[g.uniform_int(10)];
  for (int c : histo) EXPECT_NEAR(c, 10000, 600);  // ~6 sigma
}

TEST(Xoshiro, ForkGivesIndependentStreams) {
  Xoshiro256 parent(9);
  Xoshiro256 c1 = parent.fork(1);
  Xoshiro256 c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1() == c2()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Normal, MomentsMatch) {
  Xoshiro256 g(10);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = qfc::rng::sample_normal(g, 2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Normal, NegativeSigmaThrows) {
  Xoshiro256 g(11);
  EXPECT_THROW(qfc::rng::sample_normal(g, 0.0, -1.0), std::invalid_argument);
}

TEST(Normal, NanSigmaThrows) {
  Xoshiro256 g(11);
  EXPECT_THROW(qfc::rng::sample_normal(g, 0.0, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
}

TEST(Exponential, MeanAndPositivity) {
  Xoshiro256 g(12);
  const double lambda = 4.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = qfc::rng::sample_exponential(g, lambda);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.005);
}

TEST(Exponential, BadRateThrows) {
  Xoshiro256 g(13);
  EXPECT_THROW(qfc::rng::sample_exponential(g, 0.0), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_exponential(g, -2.0), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_exponential(g, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_double_exponential(g, 0.0), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_double_exponential(g, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
}

TEST(DoubleExponential, SymmetricWithLaplaceVariance) {
  Xoshiro256 g(14);
  const double lambda = 2.0;
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = qfc::rng::sample_double_exponential(g, lambda);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  // Var(Laplace) = 2/λ².
  EXPECT_NEAR(sum2 / n, 2.0 / (lambda * lambda), 0.02);
}

class PoissonMoments : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMoments, MeanAndVariance) {
  const double mu = GetParam();
  Xoshiro256 g(static_cast<std::uint64_t>(mu * 1000) + 15);
  const int n = 100000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(qfc::rng::sample_poisson(g, mu));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  const double tol = 6.0 * std::sqrt(mu / n) + 0.01;
  EXPECT_NEAR(mean, mu, tol);
  EXPECT_NEAR(var, mu, 12.0 * mu / std::sqrt(static_cast<double>(n)) + 0.05);
}

// Covers both the inversion branch (mu < 30) and PTRS (mu >= 30).
INSTANTIATE_TEST_SUITE_P(SmallAndLargeMu, PoissonMoments,
                         ::testing::Values(0.1, 1.0, 5.0, 12.0, 29.9, 30.1, 80.0,
                                           400.0));

TEST(Poisson, ZeroMeanGivesZero) {
  Xoshiro256 g(16);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(qfc::rng::sample_poisson(g, 0.0), 0u);
}

TEST(Poisson, NegativeThrows) {
  Xoshiro256 g(17);
  EXPECT_THROW(qfc::rng::sample_poisson(g, -1.0), std::invalid_argument);
}

TEST(Poisson, NonFiniteMeanThrowsInsteadOfHanging) {
  Xoshiro256 g(18);
  for (double mu : {std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(qfc::rng::sample_poisson(g, mu), std::invalid_argument) << mu;
    EXPECT_THROW(qfc::rng::sample_zero_truncated_poisson(g, mu), std::invalid_argument) << mu;
  }
}

TEST(ZeroTruncatedPoisson, NeverZeroAndMeanMatches) {
  Xoshiro256 g(117);
  for (const double mu : {0.05, 0.8, 5.0, 40.0}) {
    const int trials = 40000;
    double sum = 0;
    for (int i = 0; i < trials; ++i) {
      const auto k = qfc::rng::sample_zero_truncated_poisson(g, mu);
      ASSERT_GE(k, 1u);
      sum += static_cast<double>(k);
    }
    // E[k | k >= 1] = mu / (1 - e^-mu).
    const double expected = mu / -std::expm1(-mu);
    EXPECT_NEAR(sum / trials, expected, 0.02 * expected) << "mu=" << mu;
  }
}

TEST(ZeroTruncatedPoisson, NonPositiveMeanThrows) {
  Xoshiro256 g(118);
  EXPECT_THROW(qfc::rng::sample_zero_truncated_poisson(g, 0.0), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_zero_truncated_poisson(g, -1.0), std::invalid_argument);
}

TEST(Bernoulli, Extremes) {
  Xoshiro256 g(18);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(qfc::rng::sample_bernoulli(g, 0.0));
    EXPECT_TRUE(qfc::rng::sample_bernoulli(g, 1.0));
  }
  EXPECT_THROW(qfc::rng::sample_bernoulli(g, 1.5), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_bernoulli(g, -0.5), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_bernoulli(g, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
}

TEST(Discrete, RespectsWeights) {
  Xoshiro256 g(21);
  const std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> histo(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++histo[qfc::rng::sample_discrete(g, w)];
  EXPECT_EQ(histo[1], 0);
  EXPECT_NEAR(histo[0], n / 4, 500);
  EXPECT_NEAR(histo[2], 3 * n / 4, 500);
}

TEST(Discrete, AllZeroThrows) {
  Xoshiro256 g(22);
  const std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(qfc::rng::sample_discrete(g, w), std::invalid_argument);
}

TEST(Thermal, BoseEinsteinMoments) {
  Xoshiro256 g(23);
  const double mu = 0.7;
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(qfc::rng::sample_thermal(g, mu));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, mu, 0.02);
  // Thermal: Var = μ(1+μ).
  EXPECT_NEAR(var, mu * (1 + mu), 0.06);
}

TEST(OuProcess, RevertsToMeanWithStationaryVariance) {
  Xoshiro256 g(24);
  qfc::rng::OrnsteinUhlenbeck ou(5.0, 10.0, 2.0, 50.0);
  // Long steps: each sample is nearly independent and stationary.
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = ou.step(g, 100.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(OuProcess, ZeroDtIsNoOp) {
  Xoshiro256 g(25);
  qfc::rng::OrnsteinUhlenbeck ou(0.0, 1.0, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(ou.step(g, 0.0), 3.0);
}

TEST(OuProcess, BadParamsThrow) {
  EXPECT_THROW(qfc::rng::OrnsteinUhlenbeck(0, -1, 1, 0), std::invalid_argument);
  EXPECT_THROW(qfc::rng::OrnsteinUhlenbeck(0, 1, -1, 0), std::invalid_argument);
}

}  // namespace
