// Tests for quantum state tomography (S8): settings, projectors, count
// simulation, linear inversion, maximum likelihood.

#include <cmath>
#include <cstdint>
#include <cstdio>
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

TEST(Settings, CountAndOrder) {
  // All 3^n settings, lexicographic over {X, Y, Z} with qubit 0 slowest.
  rng::Xoshiro256 g(1);
  const DensityMatrix one{quantum::StateVector(1)}, two{bell_phi()};
  const auto s1 = tomo::simulate_counts(one, 10.0, {}, g);
  ASSERT_EQ(s1.size(), 3u);
  EXPECT_EQ(s1[0].bases, std::vector<std::size_t>{0});
  EXPECT_EQ(s1[2].bases, std::vector<std::size_t>{2});
  const auto s2 = tomo::simulate_counts(two, 10.0, {}, g);
  ASSERT_EQ(s2.size(), 9u);
  EXPECT_EQ(s2[1].bases, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(s2[5].bases, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(tomo::simulate_counts(two.tensor(two), 10.0, {}, g).size(), 81u);
}

TEST(Projectors, CompleteAndOrthogonal) {
  const auto xy = tomo::setting_bases(tomo::pauli_bases(), {0, 1});
  linalg::CMat sum(4, 4);
  for (std::size_t o = 0; o < 4; ++o) {
    const auto p = tomo::outcome_projector(xy, o);
    sum += p;
    EXPECT_LT((p * p - p).max_abs(), 1e-12);  // idempotent
    const auto v = tomo::outcome_vector(xy, o);  // its rank-1 factor
    EXPECT_LT((linalg::outer(v, v) - p).max_abs(), 1e-15);
  }
  EXPECT_LT((sum - linalg::CMat::identity(4)).max_abs(), 1e-12);
  EXPECT_THROW(tomo::outcome_projector(xy, 4), std::out_of_range);
  EXPECT_THROW(tomo::outcome_vector(xy, 4), std::out_of_range);
}

TEST(Projectors, ZBasisIsComputational) {
  const auto p0 = tomo::outcome_projector(tomo::setting_bases(tomo::pauli_bases(), {2}), 0);
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
    if (d.bases != std::vector<std::size_t>{2, 2}) continue;
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
      const auto p = tomo::outcome_projector(tomo::setting_bases(tomo::pauli_bases(), d.bases), o);
      const double prob = std::max(1e-12, std::real((seed_mat * p).trace()));
      ll_seed += static_cast<double>(d.counts[o]) * std::log(prob);
    }
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_GE(mle.log_likelihood, ll_seed - 1e-6);
}

TEST(Tomography, RejectsBadInput) {
  EXPECT_THROW(tomo::linear_inversion({}), std::invalid_argument);
  rng::Xoshiro256 g(11);
  const DensityMatrix rho{bell_phi()};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN or infinite Poisson mean used to hang the sampler, and a NaN rms
  // read as "no noise": every knob must be finite.
  for (double shots : {0.0, -1.0, nan, inf}) {
    EXPECT_THROW(tomo::simulate_counts(rho, shots, {}, g), std::invalid_argument) << shots;
    EXPECT_THROW(qudit::simulate_mub_counts(rho, shots, g), std::invalid_argument) << shots;
  }
  for (const tomo::NoiseKnobs& knobs : {tomo::NoiseKnobs{nan, 0.0}, tomo::NoiseKnobs{inf, 0.0},
                                        tomo::NoiseKnobs{0.0, nan}, tomo::NoiseKnobs{0.0, inf}})
    EXPECT_THROW(tomo::simulate_counts(rho, 100.0, knobs, g), std::invalid_argument);
}

TEST(Tomography, BothPathsRejectIncompleteOrRepeatedSettings) {
  // One data check serves both paths: each of the |set|^n settings exactly
  // once, with d^n counts. A repeated qubit setting used to reach the linear
  // inversion as its last copy and the MLE as the sum of all copies.
  rng::Xoshiro256 g(12);
  const auto pauli = tomo::simulate_counts(DensityMatrix{bell_phi()}, 100.0, {}, g);
  const auto mub = qudit::simulate_mub_counts(
      quantum::isotropic_noise(quantum::maximally_entangled(3), 0.9), 100.0, g);
  const auto corrupted = [](const std::vector<tomo::SettingCounts>& data) {
    std::vector<std::vector<tomo::SettingCounts>> out(5, data);
    out[0].push_back(data[0]);         // repeated
    out[1][1] = data[0];               // repeated, one missing
    out[2].pop_back();                 // missing
    out[3][0].counts.pop_back();       // too few outcomes
    out[4][0].bases[0] = 99;           // no such basis
    return out;
  };
  for (const auto& data : corrupted(pauli)) {
    EXPECT_THROW(tomo::linear_inversion(data), std::invalid_argument);
    EXPECT_THROW(tomo::maximum_likelihood(data), std::invalid_argument);
  }
  for (const auto& data : corrupted(mub)) {
    EXPECT_THROW(qudit::mub_linear_inversion(data, 3, 2), std::invalid_argument);
    EXPECT_THROW(qudit::mub_maximum_likelihood(data, 3, 2), std::invalid_argument);
  }
  EXPECT_THROW(qudit::mub_linear_inversion(mub, 3, 1), std::invalid_argument);
  EXPECT_THROW(qudit::mub_linear_inversion(mub, 5, 2), std::invalid_argument);
}

TEST(Tomography, RrrCoreValidatesTerms) {
  const linalg::CMat seed = linalg::CMat::identity(2) * linalg::cplx(0.5, 0);
  const linalg::CVec p0{linalg::cplx(1, 0), linalg::cplx(0, 0)};
  // Empty / zero-count data has nothing to reconstruct from.
  EXPECT_THROW(tomo::rrr_reconstruct({}, seed, {2}), std::invalid_argument);
  // Mis-sized projectors and negative (background-subtracted) counts are
  // rejected rather than silently mis-normalizing the iteration.
  EXPECT_THROW(
      tomo::rrr_reconstruct({{linalg::CVec(3, linalg::cplx(1, 0)), 10.0}}, seed, {2}),
      std::invalid_argument);
  EXPECT_THROW(tomo::rrr_reconstruct({{p0, 10.0}, {p0, -1.0}}, seed, {2}),
               std::invalid_argument);
  // A well-posed single-projector problem converges to that projector.
  const auto res = tomo::rrr_reconstruct({{p0, 100.0}}, seed, {2});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(std::real(res.rho.matrix()(0, 0)), 1.0, 1e-6);
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
                                  const linalg::CMat& s, const tomo::MleOptions& opts,
                                  const quantum::Dims& dims = {2}) {
    try {
      tomo::rrr_reconstruct(terms, s, dims, opts);
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
  expect_rejected({{z0, 10.0}, {z1, 10.0}}, seed, defaults, {3});

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

TEST(Mle, ProductBasisEstimateIsTheLikelihoodMaximum) {
  // Both paths: Pauli tomography of two and three qubits, MUB tomography of
  // two qutrits.
  struct Case {
    tomo::BasisSet set;
    std::vector<tomo::SettingCounts> data;
    tomo::MleResult mle;
  };
  std::vector<Case> cases;
  const DensityMatrix werner = werner_phi(0.83);
  const quantum::StateVector pure_qubit(
      linalg::CVec{linalg::cplx(std::cos(0.4), 0),
                   std::sin(0.4) * std::exp(linalg::cplx(0, 0.9))});
  for (const DensityMatrix& rho : {werner, werner.tensor(DensityMatrix(pure_qubit))}) {
    rng::Xoshiro256 g(11);
    auto data = tomo::simulate_counts(rho, 200.0, {}, g);
    auto mle = tomo::maximum_likelihood(data, tight_mle_options());
    cases.push_back({tomo::pauli_bases(), std::move(data), std::move(mle)});
  }
  rng::Xoshiro256 g(12);
  auto data = qudit::simulate_mub_counts(
      quantum::isotropic_noise(quantum::maximally_entangled(3), 0.9), 200.0, g);
  auto mle = qudit::mub_maximum_likelihood(data, 3, 2, tight_mle_options());
  cases.push_back({qudit::mub_bases(3), std::move(data), std::move(mle)});

  for (const auto& [set, data, mle] : cases) {
    const std::size_t dim = mle.rho.dim();
    ASSERT_TRUE(mle.converged) << "dim " << dim;
    std::vector<linalg::CMat> projectors;
    std::vector<double> counts;
    for (const auto& sc : data)
      for (std::size_t o = 0; o < sc.counts.size(); ++o) {
        if (sc.counts[o] == 0) continue;
        projectors.push_back(tomo::outcome_projector(tomo::setting_bases(set, sc.bases), o));
        counts.push_back(static_cast<double>(sc.counts[o]));
      }
    const auto [residual, r_max] =
        likelihood_stationarity(mle.rho.matrix(), projectors, counts);
    EXPECT_LT(residual, 1e-9) << "dim " << dim;
    EXPECT_LT(r_max, 1.0 + 1e-9) << "dim " << dim;
  }
}

// ------------------------------------------------------------- bit pins

/// FNV-1a over every count of every setting, in setting order.
template <typename Data>
std::uint64_t count_digest(const Data& data) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& sc : data)
    for (std::uint64_t c : sc.counts)
      for (int b = 0; b < 8; ++b) {
        h ^= (c >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
  return h;
}

/// What a pin holds of one simulate + MLE run: exact counts (digest),
/// iteration count and convergence flag, the log-likelihood, and two
/// weighted sums over every ρ entry (row-major entry k weighted k + 1 and
/// 1/(k + 1)), which move if any one entry moves.
struct Pin {
  const char* name;
  std::uint64_t counts;
  int iterations;
  bool converged;
  double log_likelihood;
  double f1_re, f1_im, f2_re, f2_im;
};

template <typename Data, typename Mle>
void expect_pinned(const Pin& want, const Data& data, const Mle& mle) {
  const linalg::CMat& rho = mle.rho.matrix();
  linalg::cplx f1, f2;
  double scale1 = 0, scale2 = 0;
  for (std::size_t k = 0; k < rho.size(); ++k) {
    const double w = static_cast<double>(k + 1);
    f1 += rho.data()[k] * w;
    f2 += rho.data()[k] / w;
    scale1 += std::abs(rho.data()[k]) * w;
    scale2 += std::abs(rho.data()[k]) / w;
  }
  // Integers exactly; doubles to 1e-12 of their scale, which leaves room
  // for the GEMM's SIMD-dependent summation order (QFC_LINALG_SIMD=off)
  // and nothing more.
  const double tol1 = 1e-12 * scale1, tol2 = 1e-12 * scale2;
  const bool same =
      count_digest(data) == want.counts && mle.iterations == want.iterations &&
      mle.converged == want.converged &&
      std::abs(mle.log_likelihood - want.log_likelihood) <=
          1e-12 * std::abs(want.log_likelihood) &&
      std::abs(f1.real() - want.f1_re) <= tol1 && std::abs(f1.imag() - want.f1_im) <= tol1 &&
      std::abs(f2.real() - want.f2_re) <= tol2 && std::abs(f2.imag() - want.f2_im) <= tol2;
  char got[512];
  std::snprintf(got, sizeof got,
                "{\"%s\", %lluull, %d, %s, %.17g, %.17g, %.17g, %.17g, %.17g}", want.name,
                static_cast<unsigned long long>(count_digest(data)), mle.iterations,
                mle.converged ? "true" : "false", mle.log_likelihood, f1.real(), f1.imag(),
                f2.real(), f2.imag());
  EXPECT_TRUE(same) << "got " << got;
}

TEST(Pin, PauliTomographyOutputs) {
  const quantum::StateVector pure_qubit(
      linalg::CVec{linalg::cplx(std::cos(0.4), 0),
                   std::sin(0.4) * std::exp(linalg::cplx(0, 0.9))});
  const DensityMatrix pair = werner_phi(0.9);
  const std::vector<std::pair<DensityMatrix, double>> cases = {
      {DensityMatrix(pure_qubit), 300.0}, {werner_phi(0.83), 200.0}, {pair.tensor(pair), 60.0}};
  const Pin pins[] = {
      {"n1", 17809315873939459574ull, 97, true, -438.14178052889827, 2.6222343420413559, 0.30263230000555985, 1.0579143023501156, -0.050438716667593309},
      {"n1 noisy", 13710317891451855327ull, 500, false, -475.56127505528002, 2.8322978867914337, 0.20569607644069998, 1.1242233760438489, -0.034282679406783326},
      {"n2", 10836562860066124018ull, 472, true, -2311.6566746188723, 15.278560549486386, 0.31185164457594655, 0.6181030762821027, -0.012793466191158566},
      {"n2 noisy", 402094767900601023ull, 401, true, -2328.9739325535843, 15.954868240291869, 0.054599535895123619, 0.57664103228765051, -0.010901767356750379},
      {"n4", 13611408935159203195ull, 500, false, -11749.144460290734, 446.27266924385947, -0.40971858109465753, 0.34327931234539172, -0.00071130177567877123},
      {"n4 noisy", 18074667496569185761ull, 500, false, -16070.910186546867, 331.29959986209144, 11.947008489624789, 0.26357306411571141, 0.00096300439854677907},
  };
  const tomo::NoiseKnobs four_photon_noise{0.38, 1.0};
  std::size_t i = 0;
  for (const auto& [rho, shots] : cases)
    for (const tomo::NoiseKnobs& noise : {tomo::NoiseKnobs{}, four_photon_noise}) {
      rng::Xoshiro256 g(2024 + i);
      const auto data = tomo::simulate_counts(rho, shots, noise, g);
      expect_pinned(pins[i++], data, tomo::maximum_likelihood(data));
    }
}

TEST(Pin, MubTomographyOutputs) {
  tomo::MleOptions opts;
  opts.convergence_tol = 1e-6;
  const Pin pins[] = {
      {"d2 n1", 16465951872363356157ull, 48, true, -303.94484557185024, 4.7715150360373091, 0.30945842344181496, 0.80632579241457236, -0.051576403906969132},
      {"d2 n2", 11559571154907190275ull, 110, true, -2281.4111837676728, 16.133221623603433, 0.17410450359149793, 0.65455572138257989, 0.0032668868184300044},
      {"d3 n1", 10689741185409011196ull, 145, true, -626.07175505462055, 12.043271490823637, 1.9699708244179697, 0.48868142593281122, -0.10756993015919919},
      {"d3 n2", 1200835872944465540ull, 190, true, -6459.6069823139906, 108.66273632375946, 0.19089927205940738, 0.4304909195736969, 0.0082094551393140005},
      {"d5 n1", 7238015058182282458ull, 200, false, -1572.2449039877683, 28.824672129944634, 10.021249388934727, 0.16779524107318611, -0.098748933310192841},
      {"d5 n2", 5213999884755260382ull, 200, false, -21791.86621327134, 1318.1853199936368, -11.368439619100187, 0.24619980310047057, 0.00034631131997483582},
      {"d7 n1", 16909275202140708553ull, 40, false, -2573.8375758313364, 36.525301835537803, 13.841492624386845, 0.036668254643796146, -0.043106313753921377},
      {"d7 n2", 7030668372711917228ull, 40, false, -47495.686753483715, 7224.9977942510877, -53.715774686862559, 0.16497606266322654, -0.0033598938851142103},
  };
  std::size_t i = 0;
  for (std::size_t d : {2, 3, 5, 7}) {
    linalg::CVec amps(d);
    for (std::size_t j = 0; j < d; ++j)
      amps[j] = std::polar(1.0 + 0.3 * static_cast<double>(j), 0.7 * static_cast<double>(j));
    linalg::vnormalize(amps);
    const quantum::StateVector psi(amps, quantum::Dims{d});
    const std::vector<DensityMatrix> states = {
        DensityMatrix(psi),
        quantum::isotropic_noise(quantum::maximally_entangled(d), 0.9)};
    opts.max_iterations = d < 7 ? 200 : 40;  // d = 7, n = 2 costs 60 ms per 10 iterations
    for (std::size_t n = 1; n <= 2; ++n) {
      rng::Xoshiro256 g(77 + i);
      const auto data = qudit::simulate_mub_counts(states[n - 1], 200.0, g);
      expect_pinned(pins[i++], data, qudit::mub_maximum_likelihood(data, d, n, opts));
    }
  }
}

}  // namespace
