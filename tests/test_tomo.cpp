// Tests for quantum state tomography (S8): settings, projectors, count
// simulation, linear inversion, maximum likelihood.

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/qudit/mub.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using namespace qfc;
using quantum::bell_phi;
using quantum::DensityMatrix;
using quantum::werner_phi;

TEST(Settings, CountAndContent) {
  const auto s1 = tomo::all_settings(1);
  ASSERT_EQ(s1.size(), 3u);
  EXPECT_EQ(s1[0].bases, "X");
  EXPECT_EQ(s1[2].bases, "Z");

  const auto s2 = tomo::all_settings(2);
  EXPECT_EQ(s2.size(), 9u);
  const auto s4 = tomo::all_settings(4);
  EXPECT_EQ(s4.size(), 81u);
}

TEST(Projectors, CompleteAndOrthogonal) {
  const tomo::MeasurementSetting s{"XY"};
  linalg::CMat sum(4, 4);
  for (std::size_t o = 0; o < 4; ++o) {
    const auto p = tomo::outcome_projector(s, o);
    sum += p;
    EXPECT_LT((p * p - p).max_abs(), 1e-12);  // idempotent
    const auto v = tomo::outcome_vector(s, o);  // its rank-1 factor
    EXPECT_LT((linalg::outer(v, v) - p).max_abs(), 1e-15);
  }
  EXPECT_LT((sum - linalg::CMat::identity(4)).max_abs(), 1e-12);
  EXPECT_THROW(tomo::outcome_projector(s, 4), std::out_of_range);
  EXPECT_THROW(tomo::outcome_vector(s, 4), std::out_of_range);
}

TEST(Projectors, ZBasisIsComputational) {
  const tomo::MeasurementSetting s{"Z"};
  const auto p0 = tomo::outcome_projector(s, 0);
  EXPECT_NEAR(std::real(p0(0, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::real(p0(1, 1)), 0.0, 1e-12);
}

TEST(SimulateCounts, TotalsNearShots) {
  rng::Xoshiro256 g(1);
  const DensityMatrix rho{bell_phi()};
  const auto data = tomo::simulate_counts(rho, 1000.0, {}, g);
  ASSERT_EQ(data.size(), 9u);
  for (const auto& d : data)
    EXPECT_NEAR(static_cast<double>(d.total()), 1000.0, 5 * std::sqrt(1000.0));
}

TEST(SimulateCounts, ZZOnBellIsCorrelated) {
  rng::Xoshiro256 g(2);
  const DensityMatrix rho{bell_phi()};
  const auto data = tomo::simulate_counts(rho, 4000.0, {}, g);
  for (const auto& d : data) {
    if (d.setting.bases != "ZZ") continue;
    // Outcomes 00 and 11 only.
    EXPECT_GT(d.counts[0], 1500u);
    EXPECT_GT(d.counts[3], 1500u);
    EXPECT_EQ(d.counts[1], 0u);
    EXPECT_EQ(d.counts[2], 0u);
  }
}

TEST(LinearInversion, RecoversBellInNoiselessLimit) {
  rng::Xoshiro256 g(3);
  const DensityMatrix rho{bell_phi()};
  const auto data = tomo::simulate_counts(rho, 2e5, {}, g);
  const auto est = tomo::linear_inversion(data);
  EXPECT_LT((est - rho.matrix()).max_abs(), 0.02);
  EXPECT_NEAR(std::real(est.trace()), 1.0, 1e-9);
}

TEST(LinearInversion, CanBeNonPhysicalAtLowCounts) {
  // With few shots the linear estimate often has negative eigenvalues —
  // the reason MLE exists. (Not guaranteed per-seed, so only check that
  // the estimate is at least Hermitian/unit-trace and that projecting it
  // fixes any negativity.)
  rng::Xoshiro256 g(4);
  const DensityMatrix rho = werner_phi(0.9);
  const auto data = tomo::simulate_counts(rho, 30.0, {}, g);
  const auto est = tomo::linear_inversion(data);
  EXPECT_TRUE(linalg::is_hermitian(est, 1e-9));
  EXPECT_NEAR(std::real(est.trace()), 1.0, 1e-9);
  const auto proj = linalg::project_to_density_matrix(est);
  const auto evals = linalg::hermitian_eigenvalues(proj);
  for (double v : evals) EXPECT_GE(v, -1e-9);
}

TEST(Mle, ReconstructsBellWithHighFidelity) {
  rng::Xoshiro256 g(5);
  const DensityMatrix rho{bell_phi()};
  const auto data = tomo::simulate_counts(rho, 5000.0, {}, g);
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_TRUE(mle.converged);
  EXPECT_GT(quantum::fidelity(mle.rho, bell_phi()), 0.99);
}

TEST(Mle, ReconstructsWernerVisibility) {
  rng::Xoshiro256 g(6);
  const double v = 0.83;
  const DensityMatrix rho = werner_phi(v);
  const auto data = tomo::simulate_counts(rho, 10000.0, {}, g);
  const auto mle = tomo::maximum_likelihood(data);
  // Fidelity to the true state should be near 1; to the Bell state near
  // (1+3V)/4.
  EXPECT_GT(quantum::fidelity(mle.rho, rho), 0.995);
  EXPECT_NEAR(quantum::fidelity(mle.rho, bell_phi()), (1 + 3 * v) / 4, 0.02);
}

TEST(Mle, PhysicalEvenAtVeryLowCounts) {
  rng::Xoshiro256 g(7);
  const DensityMatrix rho = werner_phi(0.7);
  const auto data = tomo::simulate_counts(rho, 20.0, {}, g);
  const auto mle = tomo::maximum_likelihood(data);
  const auto evals = linalg::hermitian_eigenvalues(mle.rho.matrix());
  for (double e : evals) EXPECT_GE(e, -1e-9);
  EXPECT_NEAR(std::real(mle.rho.matrix().trace()), 1.0, 1e-6);
}

TEST(Mle, AnalyzerPhaseNoiseLowersFidelity) {
  rng::Xoshiro256 g1(8), g2(8);
  const DensityMatrix rho{bell_phi()};
  const auto clean = tomo::simulate_counts(rho, 3000.0, {}, g1);
  tomo::NoiseKnobs knobs;
  knobs.analyzer_phase_rms_rad = 0.5;
  const auto noisy = tomo::simulate_counts(rho, 3000.0, knobs, g2);
  const double f_clean =
      quantum::fidelity(tomo::maximum_likelihood(clean).rho, bell_phi());
  const double f_noisy =
      quantum::fidelity(tomo::maximum_likelihood(noisy).rho, bell_phi());
  EXPECT_GT(f_clean, f_noisy + 0.01);
}

TEST(Mle, FourQubitProductStateReconstruction) {
  rng::Xoshiro256 g(9);
  const DensityMatrix pair = werner_phi(0.9);
  const DensityMatrix four = pair.tensor(pair);
  const auto data = tomo::simulate_counts(four, 500.0, {}, g);
  ASSERT_EQ(data.size(), 81u);
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_GT(quantum::fidelity(mle.rho, four), 0.95);
}

TEST(Mle, LikelihoodIncreasesVsSeed) {
  // The RρR fixed point must beat (or match) the projected linear seed.
  rng::Xoshiro256 g(10);
  const DensityMatrix rho = werner_phi(0.6);
  const auto data = tomo::simulate_counts(rho, 200.0, {}, g);

  const auto seed_mat = linalg::project_to_density_matrix(tomo::linear_inversion(data));
  double ll_seed = 0;
  for (const auto& d : data)
    for (std::size_t o = 0; o < d.counts.size(); ++o) {
      if (d.counts[o] == 0) continue;
      const auto p = tomo::outcome_projector(d.setting, o);
      const double prob = std::max(1e-12, std::real((seed_mat * p).trace()));
      ll_seed += static_cast<double>(d.counts[o]) * std::log(prob);
    }
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_GE(mle.log_likelihood, ll_seed - 1e-6);
}

TEST(Tomography, RejectsBadInput) {
  EXPECT_THROW(tomo::linear_inversion({}), std::invalid_argument);
  EXPECT_THROW(tomo::all_settings(0), std::invalid_argument);
  rng::Xoshiro256 g(11);
  const DensityMatrix rho{bell_phi()};
  EXPECT_THROW(tomo::simulate_counts(rho, 0.0, {}, g), std::invalid_argument);
}

TEST(Tomography, RrrCoreValidatesTerms) {
  const linalg::CMat seed = linalg::CMat::identity(2) * linalg::cplx(0.5, 0);
  const linalg::CVec p0{linalg::cplx(1, 0), linalg::cplx(0, 0)};
  // Empty / zero-count data has nothing to reconstruct from.
  EXPECT_THROW(tomo::rrr_reconstruct({}, seed), std::invalid_argument);
  // Mis-sized projectors and negative (background-subtracted) counts are
  // rejected rather than silently mis-normalizing the iteration.
  EXPECT_THROW(tomo::rrr_reconstruct({{linalg::CVec(3, linalg::cplx(1, 0)), 10.0}}, seed),
               std::invalid_argument);
  EXPECT_THROW(tomo::rrr_reconstruct({{p0, 10.0}, {p0, -1.0}}, seed),
               std::invalid_argument);
  // A well-posed single-projector problem converges to that projector.
  const auto res = tomo::rrr_reconstruct({{p0, 100.0}}, seed);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(std::real(res.rho(0, 0)), 1.0, 1e-6);
}

TEST(Tomography, RrrCoreRejectsNonFiniteInputBeforeIterating) {
  // Every malformed input throws std::invalid_argument from rrr_reconstruct
  // itself, not from a downstream kernel after the iteration cap.
  const linalg::CMat seed = linalg::CMat::identity(2) * linalg::cplx(0.5, 0);
  const linalg::CVec z0{linalg::cplx(1, 0), linalg::cplx(0, 0)};
  const linalg::CVec z1{linalg::cplx(0, 0), linalg::cplx(1, 0)};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [](const std::vector<tomo::ProjectorTerm>& terms,
                                  const linalg::CMat& s, const tomo::MleOptions& opts) {
    try {
      tomo::rrr_reconstruct(terms, s, opts);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("rrr_reconstruct", 0), 0u) << e.what();
    }
  };
  const tomo::MleOptions defaults;
  expect_rejected({{z0, nan}, {z1, 10.0}}, seed, defaults);
  expect_rejected({{z0, inf}, {z1, 10.0}}, seed, defaults);
  expect_rejected({{linalg::CVec{linalg::cplx(nan, 0), linalg::cplx(0, 0)}, 10.0},
                   {z1, 10.0}},
                  seed, defaults);
  linalg::CMat nan_seed = seed;
  nan_seed(0, 0) = linalg::cplx(nan, 0);
  expect_rejected({{z0, 10.0}, {z1, 10.0}}, nan_seed, defaults);

  tomo::MleOptions opts;
  opts.max_iterations = -1;
  expect_rejected({{z0, 10.0}, {z1, 10.0}}, seed, opts);
  opts = {};
  opts.convergence_tol = nan;
  expect_rejected({{z0, 10.0}, {z1, 10.0}}, seed, opts);
  opts.convergence_tol = -1e-6;
  expect_rejected({{z0, 10.0}, {z1, 10.0}}, seed, opts);
}

// ------------------------------------------------- MLE optimality (KKT)

/// For R = Σ_k n_k/(N p_k) P_k with p_k = Tr(ρ P_k), built from dense
/// projectors: {‖Rρ − ρ‖_F, λ_max(R)}. The likelihood maximum over density
/// matrices satisfies Rρ = ρ and R ≤ I, whatever algorithm found it.
std::pair<double, double> likelihood_stationarity(
    const linalg::CMat& rho, const std::vector<linalg::CMat>& projectors,
    const std::vector<double>& counts) {
  double total = 0;
  for (double n : counts) total += n;
  linalg::CMat r(rho.rows(), rho.cols());
  for (std::size_t k = 0; k < projectors.size(); ++k) {
    const double p = std::real(linalg::trace_product(rho, projectors[k]));
    r += projectors[k] * linalg::cplx(counts[k] / (total * p), 0);
  }
  const double residual = (r * rho - rho).frobenius_norm();
  return {residual, linalg::hermitian_eigenvalues(r).front()};
}

tomo::MleOptions tight_mle_options() {
  tomo::MleOptions opts;
  opts.convergence_tol = 1e-13;
  opts.max_iterations = 20000;
  return opts;
}

TEST(Mle, PauliEstimateIsTheLikelihoodMaximum) {
  const DensityMatrix werner = werner_phi(0.83);
  const quantum::StateVector pure_qubit(
      linalg::CVec{linalg::cplx(std::cos(0.4), 0),
                   std::sin(0.4) * std::exp(linalg::cplx(0, 0.9))});
  for (const DensityMatrix& rho : {werner, werner.tensor(DensityMatrix(pure_qubit))}) {
    rng::Xoshiro256 g(11);
    const auto data = tomo::simulate_counts(rho, 200.0, {}, g);
    const auto mle = tomo::maximum_likelihood(data, tight_mle_options());
    ASSERT_TRUE(mle.converged) << "dim " << rho.dim();

    std::vector<linalg::CMat> projectors;
    std::vector<double> counts;
    for (const auto& d : data)
      for (std::size_t o = 0; o < d.counts.size(); ++o) {
        if (d.counts[o] == 0) continue;
        projectors.push_back(tomo::outcome_projector(d.setting, o));
        counts.push_back(static_cast<double>(d.counts[o]));
      }
    const auto [residual, r_max] =
        likelihood_stationarity(mle.rho.matrix(), projectors, counts);
    EXPECT_LT(residual, 1e-9) << "dim " << rho.dim();
    EXPECT_LT(r_max, 1.0 + 1e-9) << "dim " << rho.dim();
  }
}

TEST(Mle, MubEstimateIsTheLikelihoodMaximum) {
  constexpr std::size_t d = 3;
  rng::Xoshiro256 g(12);
  const auto data = qudit::simulate_mub_counts(
      quantum::isotropic_noise(quantum::maximally_entangled(d), 0.9), 200.0, g);
  const auto mle = qudit::mub_maximum_likelihood(data, d, 2, tight_mle_options());
  ASSERT_TRUE(mle.converged);

  const auto mubs = qudit::mub_bases(d);
  const auto column = [&](std::size_t b, std::size_t k) {
    linalg::CVec v(d);
    for (std::size_t j = 0; j < d; ++j) v[j] = mubs[b](j, k);
    return v;
  };
  std::vector<linalg::CMat> projectors;
  std::vector<double> counts;
  for (const auto& sc : data)
    for (std::size_t k = 0; k < d; ++k)
      for (std::size_t l = 0; l < d; ++l) {
        const std::uint64_t n = sc.counts[k * d + l];
        if (n == 0) continue;
        const auto va = column(sc.bases[0], k);
        const auto vb = column(sc.bases[1], l);
        projectors.push_back(linalg::kron(linalg::outer(va, va), linalg::outer(vb, vb)));
        counts.push_back(static_cast<double>(n));
      }
  const auto [residual, r_max] =
      likelihood_stationarity(mle.rho.matrix(), projectors, counts);
  EXPECT_LT(residual, 1e-9);
  EXPECT_LT(r_max, 1.0 + 1e-9);
}

}  // namespace
