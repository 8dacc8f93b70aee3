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
#include "qfc/quantum/pauli.hpp"
#include "qfc/qudit/mub.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using namespace qfc;
using quantum::bell_phi;
using quantum::DensityMatrix;
using quantum::werner_phi;

/// The dense projector |v⟩⟨v| of one outcome (mixed radix, particle 0 the
/// most significant digit), as the Kronecker product of per-particle
/// projectors: a reference built independently of tomo::outcome_vector.
linalg::CMat outcome_projector(const std::vector<linalg::CMat>& bases, std::size_t outcome) {
  linalg::CMat proj = linalg::CMat::identity(1);
  for (std::size_t q = bases.size(); q-- > 0; outcome /= bases[q].cols()) {
    linalg::CVec v(bases[q].rows());
    for (std::size_t j = 0; j < v.size(); ++j) v[j] = bases[q](j, outcome % bases[q].cols());
    proj = linalg::kron(linalg::outer(v, v), proj);
  }
  return proj;
}

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
    const auto p = outcome_projector(xy, o);
    sum += p;
    EXPECT_LT((p * p - p).max_abs(), 1e-12);  // idempotent
    const auto v = tomo::outcome_vector(xy, o);  // its rank-1 factor
    EXPECT_LT((linalg::outer(v, v) - p).max_abs(), 1e-15);
  }
  EXPECT_LT((sum - linalg::CMat::identity(4)).max_abs(), 1e-12);
  EXPECT_THROW(tomo::outcome_vector(xy, 4), std::out_of_range);
}

TEST(Projectors, ProbabilitiesAreTraceWithProjector) {
  // ⟨v|ρ|v⟩ from the outcome vector equals Tr(ρ |v⟩⟨v|), for a mixed qubit
  // pair in a noisy analyzer setting and a qutrit pair in MUB settings.
  const DensityMatrix qubits = werner_phi(0.7, 0.4);
  const auto qutrits = quantum::isotropic_noise(quantum::maximally_entangled(3), 0.8);
  const auto mubs = qudit::mub_bases(3);
  for (const auto& [rho, bases] :
       {std::pair{qubits, tomo::setting_bases(tomo::pauli_bases(0.3), {0, 1})},
        std::pair{qutrits, tomo::setting_bases(mubs, {1, 3})},
        std::pair{qutrits, tomo::setting_bases(mubs, {2, 0})}}) {
    const auto p = tomo::outcome_probabilities(rho, bases);
    double total = 0;
    for (std::size_t o = 0; o < p.size(); ++o) {
      const auto proj = outcome_projector(bases, o);
      EXPECT_NEAR(p[o], std::real(linalg::trace_product(rho.matrix(), proj)), 1e-13) << o;
      total += p[o];
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(Projectors, ZBasisIsComputational) {
  const auto p0 = outcome_projector(tomo::setting_bases(tomo::pauli_bases(), {2}), 0);
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
  const auto est = tomo::linear_inversion(data, tomo::pauli_bases());
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
  const auto est = tomo::linear_inversion(data, tomo::pauli_bases());
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
  // The estimate must beat (or match) the projected linear seed.
  rng::Xoshiro256 g(10);
  const DensityMatrix rho = werner_phi(0.6);
  const auto data = tomo::simulate_counts(rho, 200.0, {}, g);

  const auto seed_mat =
      linalg::project_to_density_matrix(tomo::linear_inversion(data, tomo::pauli_bases()));
  double ll_seed = 0;
  for (const auto& d : data)
    for (std::size_t o = 0; o < d.counts.size(); ++o) {
      if (d.counts[o] == 0) continue;
      const auto p = outcome_projector(tomo::setting_bases(tomo::pauli_bases(), d.bases), o);
      const double prob = std::max(1e-12, std::real((seed_mat * p).trace()));
      ll_seed += static_cast<double>(d.counts[o]) * std::log(prob);
    }
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_GE(mle.log_likelihood, ll_seed - 1e-6);
}

TEST(Tomography, RejectsBadInput) {
  EXPECT_THROW(tomo::linear_inversion({}, tomo::pauli_bases()), std::invalid_argument);
  rng::Xoshiro256 g(11);
  const DensityMatrix rho{bell_phi()};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN or infinite Poisson mean used to hang the sampler, and a NaN rms
  // read as "no noise": every knob must be finite.
  for (double shots : {0.0, -1.0, nan, inf}) {
    EXPECT_THROW(tomo::simulate_counts(rho, shots, {}, g), std::invalid_argument) << shots;
    EXPECT_THROW(tomo::simulate_counts(rho, qudit::mub_bases(2), shots, 0.0, g),
                 std::invalid_argument)
        << shots;
  }
  for (const tomo::NoiseKnobs& knobs : {tomo::NoiseKnobs{nan, 0.0}, tomo::NoiseKnobs{inf, 0.0},
                                        tomo::NoiseKnobs{0.0, nan}, tomo::NoiseKnobs{0.0, inf}})
    EXPECT_THROW(tomo::simulate_counts(rho, 100.0, knobs, g), std::invalid_argument);
  // A negative accidental floor used to subtract counts, and a negative rms
  // to mean "no noise".
  for (const tomo::NoiseKnobs& knobs : {tomo::NoiseKnobs{0.0, -0.5}, tomo::NoiseKnobs{-0.1, 0.0}})
    EXPECT_THROW(tomo::simulate_counts(werner_phi(0.83), 1000.0, knobs, g),
                 std::invalid_argument);
  // The count primitive every analyzer shares wants one d_q x d_q basis per
  // particle.
  const auto xz = tomo::setting_bases(tomo::pauli_bases(), {0, 2});
  for (const auto& bases : {std::vector<linalg::CMat>{xz[0]},
                            std::vector<linalg::CMat>{xz[0], linalg::CMat::identity(3)},
                            std::vector<linalg::CMat>{xz[0], linalg::CMat(2, 3)}})
    EXPECT_THROW(tomo::sample_outcome_counts(rho, bases, 100.0, 0.0, g), std::invalid_argument);
}

TEST(Tomography, BothPathsRejectIncompleteOrRepeatedSettings) {
  // One data check serves both paths: each of the |set|^n settings exactly
  // once, with d^n counts. A repeated qubit setting used to reach the linear
  // inversion as its last copy and the MLE as the sum of all copies.
  rng::Xoshiro256 g(12);
  const auto pauli = tomo::simulate_counts(DensityMatrix{bell_phi()}, 100.0, {}, g);
  const tomo::BasisSet mubs = qudit::mub_bases(3);
  const auto mub = tomo::simulate_counts(
      quantum::isotropic_noise(quantum::maximally_entangled(3), 0.9), mubs, 100.0, 0.0, g);
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
    EXPECT_THROW(tomo::linear_inversion(data, tomo::pauli_bases()), std::invalid_argument);
    EXPECT_THROW(tomo::maximum_likelihood(data), std::invalid_argument);
  }
  for (const auto& data : corrupted(mub)) {
    EXPECT_THROW(tomo::linear_inversion(data, mubs), std::invalid_argument);
    EXPECT_THROW(tomo::maximum_likelihood(data, mubs), std::invalid_argument);
  }
}

/// One-qubit Pauli data: every setting, all counts zero except `z0` in
/// outcome 0 of Z.
std::vector<tomo::SettingCounts> z_only_data(std::uint64_t z0) {
  std::vector<tomo::SettingCounts> data;
  for (std::size_t b = 0; b < 3; ++b) data.push_back({{b}, {0, 0}});
  data[2].counts[0] = z0;
  return data;
}

TEST(Tomography, MaximumLikelihoodValidatesData) {
  // Empty or zero-count data has nothing to reconstruct from.
  EXPECT_THROW(tomo::maximum_likelihood({}, tomo::pauli_bases()), std::invalid_argument);
  EXPECT_THROW(tomo::maximum_likelihood(z_only_data(0)), std::invalid_argument);
  // Every basis must be a d x d matrix, so every outcome vector has length d^n.
  tomo::BasisSet ragged = tomo::pauli_bases();
  ragged[1] = linalg::CMat(2, 3);
  EXPECT_THROW(tomo::maximum_likelihood(z_only_data(100), ragged), std::invalid_argument);
  // A well-posed single-outcome problem converges to that outcome's projector.
  const auto res = tomo::maximum_likelihood(z_only_data(100));
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(std::real(res.rho.matrix()(0, 0)), 1.0, 1e-6);
}

TEST(Tomography, MaximumLikelihoodRejectsBadInputBeforeIterating) {
  // Every malformed input throws std::invalid_argument before the solver
  // iterates: a bad basis from the data check, the rest naming
  // maximum_likelihood.
  const auto data = z_only_data(10);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [&](const tomo::BasisSet& set, const tomo::MleOptions& opts,
                                   const char* prefix) {
    try {
      tomo::maximum_likelihood(data, set, opts);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u) << e.what();
    }
  };
  tomo::BasisSet nan_set = tomo::pauli_bases();
  nan_set[0](0, 0) = linalg::cplx(nan, 0);
  expect_rejected(nan_set, {}, "tomography");
  // An empty set has no d to check against.
  expect_rejected({}, {}, "tomography");
  EXPECT_THROW(tomo::checked_particles(data, {}), std::invalid_argument);
  EXPECT_THROW(tomo::linear_inversion(data, {}), std::invalid_argument);

  const tomo::BasisSet pauli = tomo::pauli_bases();
  tomo::MleOptions opts;
  opts.max_iterations = -1;
  expect_rejected(pauli, opts, "maximum_likelihood");
  opts = {};
  opts.convergence_tol = nan;
  expect_rejected(pauli, opts, "maximum_likelihood");
  opts.convergence_tol = -1e-6;
  expect_rejected(pauli, opts, "maximum_likelihood");
}

TEST(LinearInversion, RejectsAnIncompleteBasisSet) {
  // The dual frame needs all d + 1 bases; data that is complete for a
  // smaller set is still rejected.
  rng::Xoshiro256 g(13);
  for (tomo::BasisSet set : {tomo::pauli_bases(), qudit::mub_bases(3)}) {
    set.pop_back();
    const std::size_t d = set.front().rows();
    const auto data =
        tomo::simulate_counts(DensityMatrix{quantum::StateVector(linalg::CVec(d, 1.0 / std::sqrt(d)),
                                                                 quantum::Dims{d})},
                              set, 100.0, 0.0, g);
    EXPECT_NO_THROW(tomo::checked_particles(data, set));
    EXPECT_THROW(tomo::linear_inversion(data, set), std::invalid_argument);
    EXPECT_THROW(tomo::maximum_likelihood(data, set), std::invalid_argument);
  }
}

TEST(LinearInversion, OneQubitIsTheBlochVector) {
  // ρ̂ = (I + Σ_b ⟨σ_b⟩ σ_b)/2 with ⟨σ_b⟩ = (n_+ − n_−)/(n_+ + n_−) in basis b.
  rng::Xoshiro256 g(14);
  const quantum::StateVector psi(linalg::CVec{linalg::cplx(std::cos(0.6), 0),
                                              std::polar(std::sin(0.6), 1.1)});
  const auto data = tomo::simulate_counts(DensityMatrix(psi), 500.0, {}, g);
  linalg::CMat want = linalg::CMat::identity(2);
  const linalg::CMat* sigma[] = {&quantum::pauli_x(), &quantum::pauli_y(), &quantum::pauli_z()};
  for (const auto& sc : data) {
    const double n0 = static_cast<double>(sc.counts[0]), n1 = static_cast<double>(sc.counts[1]);
    want += *sigma[sc.bases[0]] * linalg::cplx((n0 - n1) / (n0 + n1), 0);
  }
  want *= linalg::cplx(0.5, 0);
  EXPECT_LT((tomo::linear_inversion(data, tomo::pauli_bases()) - want).max_abs(), 1e-15);
}

TEST(LinearInversion, TwoQuditsMatchTheTwoDesignFormula) {
  // The two-particle product-MUB identity
  //   S = Σ p(k,k'|b,b') Π_{b,k} ⊗ Π_{b',k'} = ρ + ρ_A ⊗ I + I ⊗ ρ_B + I ⊗ I
  // gives ρ̂ = S − ρ_A⊗I − I⊗ρ_B − I⊗I, with each marginal inverted by
  // the one-particle identity ρ_A = Σ p_A(k|b) Π_{b,k} − I from the
  // outcome distribution averaged over the other side's d + 1 settings.
  for (std::size_t d : {3, 5, 7}) {
    rng::Xoshiro256 g(15 + d);
    const tomo::BasisSet mubs = qudit::mub_bases(d);
    const auto data = tomo::simulate_counts(
        quantum::isotropic_noise(quantum::maximally_entangled(d), 0.8), mubs, 300.0, 0.0, g);
    const linalg::CMat eye = linalg::CMat::identity(d);
    linalg::CMat s(d * d, d * d), rho_a = eye * linalg::cplx(-1, 0), rho_b = rho_a;
    for (const auto& sc : data) {
      const double total = static_cast<double>(sc.total());
      const auto measured = tomo::setting_bases(mubs, sc.bases);
      for (std::size_t o = 0; o < d * d; ++o) {
        const double p = static_cast<double>(sc.counts[o]) / total;
        s += outcome_projector(measured, o) * linalg::cplx(p, 0);
        const double w = p / static_cast<double>(d + 1);
        rho_a += outcome_projector({measured[0]}, o / d) * linalg::cplx(w, 0);
        rho_b += outcome_projector({measured[1]}, o % d) * linalg::cplx(w, 0);
      }
    }
    linalg::CMat want = s;
    want -= linalg::kron(rho_a, eye);
    want -= linalg::kron(eye, rho_b);
    want -= linalg::kron(eye, eye);
    EXPECT_LT((tomo::linear_inversion(data, mubs) - want).max_abs(), 1e-13) << "d=" << d;
  }
}

TEST(LinearInversion, ThreeQutritMubTomography) {
  // Three particles, which the product dual frame handles like any other
  // count: a noisy qutrit GHZ state at 2000 shots per setting.
  linalg::CVec ghz(27);
  for (std::size_t k = 0; k < 3; ++k) ghz[13 * k] = 1.0 / std::sqrt(3.0);
  const DensityMatrix rho = quantum::isotropic_noise(
      quantum::StateVector(ghz, quantum::Dims{3, 3, 3}), 0.9);
  const tomo::BasisSet mubs = qudit::mub_bases(3);
  rng::Xoshiro256 g(16);
  const auto data = tomo::simulate_counts(rho, mubs, 2000.0, 0.0, g);
  ASSERT_EQ(data.size(), 64u);
  const linalg::CMat est = tomo::linear_inversion(data, mubs);
  EXPECT_LT((est - rho.matrix()).max_abs(), 0.02);
  EXPECT_NEAR(std::real(est.trace()), 1.0, 1e-12);
  const auto mle = tomo::maximum_likelihood(data, mubs);
  EXPECT_TRUE(mle.converged);
  EXPECT_LT((mle.rho.matrix() - rho.matrix()).max_abs(), 0.02);
}

// ------------------------------------------------- MLE optimality (KKT)

/// The three optimality cases, covering both paths: Pauli tomography of two
/// and three qubits, MUB tomography of two qutrits.
struct OptimalityCase {
  tomo::BasisSet set;
  std::vector<tomo::SettingCounts> data;
};

std::vector<OptimalityCase> optimality_cases() {
  std::vector<OptimalityCase> cases;
  const DensityMatrix werner = werner_phi(0.83);
  const quantum::StateVector pure_qubit(
      linalg::CVec{linalg::cplx(std::cos(0.4), 0),
                   std::sin(0.4) * std::exp(linalg::cplx(0, 0.9))});
  for (const DensityMatrix& rho : {werner, werner.tensor(DensityMatrix(pure_qubit))}) {
    rng::Xoshiro256 g(11);
    cases.push_back({tomo::pauli_bases(), tomo::simulate_counts(rho, 200.0, {}, g)});
  }
  rng::Xoshiro256 g(12);
  const tomo::BasisSet mubs = qudit::mub_bases(3);
  cases.push_back({mubs, tomo::simulate_counts(
                             quantum::isotropic_noise(quantum::maximally_entangled(3), 0.9),
                             mubs, 200.0, 0.0, g)});
  return cases;
}

/// Every outcome with counts of `c`, as dense projectors and counts.
std::pair<std::vector<linalg::CMat>, std::vector<double>> dense_terms(
    const OptimalityCase& c) {
  std::vector<linalg::CMat> projectors;
  std::vector<double> counts;
  for (const auto& sc : c.data)
    for (std::size_t o = 0; o < sc.counts.size(); ++o) {
      if (sc.counts[o] == 0) continue;
      projectors.push_back(outcome_projector(tomo::setting_bases(c.set, sc.bases), o));
      counts.push_back(static_cast<double>(sc.counts[o]));
    }
  return {std::move(projectors), std::move(counts)};
}

/// R = Σ_k n_k/(N p_k) P_k with p_k = Tr(ρ P_k), built from dense projectors.
linalg::CMat r_operator(const linalg::CMat& rho, const std::vector<linalg::CMat>& projectors,
                        const std::vector<double>& counts) {
  double total = 0;
  for (double n : counts) total += n;
  linalg::CMat r(rho.rows(), rho.cols());
  for (std::size_t k = 0; k < projectors.size(); ++k) {
    const double p = std::real(linalg::trace_product(rho, projectors[k]));
    r += projectors[k] * linalg::cplx(counts[k] / (total * p), 0);
  }
  return r;
}

/// {‖Rρ − ρ‖_F, λ_max(R)}. The likelihood maximum over density matrices
/// satisfies Rρ = ρ and R ≤ I, whatever algorithm found it.
std::pair<double, double> likelihood_stationarity(
    const linalg::CMat& rho, const std::vector<linalg::CMat>& projectors,
    const std::vector<double>& counts) {
  const linalg::CMat r = r_operator(rho, projectors, counts);
  const double residual = (r * rho - rho).frobenius_norm();
  return {residual, linalg::hermitian_eigenvalues(r).front()};
}

/// Σ_k n_k log Tr(ρ P_k).
double log_likelihood(const linalg::CMat& rho, const std::vector<linalg::CMat>& projectors,
                      const std::vector<double>& counts) {
  double ll = 0;
  for (std::size_t k = 0; k < projectors.size(); ++k)
    ll += counts[k] * std::log(std::real(linalg::trace_product(rho, projectors[k])));
  return ll;
}

/// A reference maximum likelihood independent of the library's solver: the
/// RρR iteration (Lvovsky 2004), ρ -> RρR / Tr(RρR), from the projected
/// linear estimate, run until its certified gap log λ_max(R) is at most
/// `gap_tol`. Returns {ρ, gap}.
std::pair<linalg::CMat, double> rrr_reference(const linalg::CMat& linear_estimate,
                                              const std::vector<linalg::CMat>& projectors,
                                              const std::vector<double>& counts,
                                              double gap_tol) {
  const std::size_t dim = linear_estimate.rows();
  linalg::CMat rho = linalg::project_to_density_matrix(linear_estimate) *
                     linalg::cplx(1.0 - 1e-3, 0);
  rho += linalg::CMat::identity(dim) * linalg::cplx(1e-3 / static_cast<double>(dim), 0);
  double gap = 0;
  for (int it = 0; it < 200000; ++it) {
    const linalg::CMat r = r_operator(rho, projectors, counts);
    gap = std::log(linalg::hermitian_eigenvalues(r).front());
    if (gap <= gap_tol) break;
    linalg::CMat next = r * rho * r;
    rho = linalg::hermitian_part(next * (linalg::cplx(1.0, 0) / next.trace()));
  }
  return {rho, gap};
}

tomo::MleOptions tight_mle_options() {
  tomo::MleOptions opts;
  opts.convergence_tol = 1e-12;
  return opts;
}

tomo::MleResult mle_of(const OptimalityCase& c, const tomo::MleOptions& opts) {
  return tomo::maximum_likelihood(c.data, c.set, opts);
}

TEST(Mle, ProductBasisEstimateIsTheLikelihoodMaximum) {
  for (const auto& c : optimality_cases()) {
    const auto mle = mle_of(c, tight_mle_options());
    const std::size_t dim = mle.rho.dim();
    ASSERT_TRUE(mle.converged) << "dim " << dim;
    EXPECT_LE(mle.likelihood_gap, 1e-12) << "dim " << dim;
    const auto [projectors, counts] = dense_terms(c);
    const auto [residual, r_max] =
        likelihood_stationarity(mle.rho.matrix(), projectors, counts);
    EXPECT_LT(residual, 1e-9) << "dim " << dim;
    EXPECT_LT(r_max, 1.0 + 1e-9) << "dim " << dim;
  }
}

TEST(Mle, MatchesLongReference) {
  // The default-tolerance estimate against an RρR run to a certified gap of
  // 1e-12: within 1e-6 in trace distance, and short of the reference's
  // log-likelihood by no more than its own certificate allows.
  for (const auto& c : optimality_cases()) {
    const auto mle = mle_of(c, {});
    const std::size_t dim = mle.rho.dim();
    ASSERT_TRUE(mle.converged) << "dim " << dim;
    EXPECT_LE(mle.likelihood_gap, tomo::MleOptions{}.convergence_tol) << "dim " << dim;
    const auto [projectors, counts] = dense_terms(c);
    const auto [ref, ref_gap] = rrr_reference(tomo::linear_inversion(c.data, c.set), projectors, counts, 1e-12);
    ASSERT_LE(ref_gap, 1e-12) << "dim " << dim;
    EXPECT_LT(quantum::trace_distance(mle.rho.matrix(), ref), 1e-6) << "dim " << dim;
    double total = 0;
    for (double n : counts) total += n;
    const double ll_ref = log_likelihood(ref, projectors, counts);
    EXPECT_NEAR(mle.log_likelihood, log_likelihood(mle.rho.matrix(), projectors, counts),
                1e-9 * std::abs(ll_ref))
        << "dim " << dim;
    EXPECT_LE(ll_ref - mle.log_likelihood, total * mle.likelihood_gap) << "dim " << dim;
  }
}

TEST(Mle, GapAndLikelihoodMatchTheDenseReferenceBeforeConvergence) {
  // Away from the optimum R is far from I, so the gradient and the
  // probabilities are checked where they carry weight: after 0, 1 and 3
  // steps, the certificate and the log-likelihood at the returned ρ against
  // the dense projector sums. The gap is log λ_max, so 1e-12 on it is
  // λ_max to 1e-12 relative.
  std::size_t zero_counts = 0;
  for (const auto& c : optimality_cases()) {
    for (const auto& sc : c.data)
      for (std::uint64_t n : sc.counts) zero_counts += n == 0;
    const auto [projectors, counts] = dense_terms(c);
    for (int steps : {0, 1, 3}) {
      tomo::MleOptions opts;
      opts.max_iterations = steps;
      const auto mle = mle_of(c, opts);
      const std::size_t dim = mle.rho.dim();
      ASSERT_EQ(mle.iterations, steps) << "dim " << dim;
      ASSERT_FALSE(mle.converged) << "dim " << dim;
      const double gap = std::log(linalg::hermitian_eigenvalues(
                                      r_operator(mle.rho.matrix(), projectors, counts))
                                      .front());
      EXPECT_NEAR(mle.likelihood_gap, gap, 1e-12)
          << "dim " << dim << " steps " << steps;
      const double ll = log_likelihood(mle.rho.matrix(), projectors, counts);
      EXPECT_NEAR(mle.log_likelihood, ll, 1e-12 * std::abs(ll))
          << "dim " << dim << " steps " << steps;
    }
  }
  // Outcomes with no counts weigh 0 in the likelihood's tensor: the cases
  // must exercise them.
  EXPECT_GT(zero_counts, 0u);
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
  // for the SIMD-dependent rounding of the projection's eigenvalue solve
  // (QFC_LINALG_SIMD=off) and nothing more.
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
      {"n1", 17809315873939459574ull, 3, true, -438.14178098938135, 2.6223601533965741, 0.30262251984984379, 1.0579281565336562, -0.050437086641640635},
      {"n1 noisy", 13710317891451855327ull, 9, true, -475.56127505522574, 2.8322981364913993, 0.20569618973053677, 1.1242236021480154, -0.0342826982884228},
      {"n2", 10836562860066124018ull, 29, true, -2311.656674560787, 15.278560444905427, 0.31185170656347627, 0.61810307763955807, -0.012793466691259168},
      {"n2 noisy", 402094767900601023ull, 24, true, -2328.9739325535857, 15.954868175426274, 0.054599499623109116, 0.5766410148751504, -0.010901767099270768},
      {"n4", 13611408935159203195ull, 70, true, -11749.143986019888, 446.27445086233359, -0.4276625068007362, 0.34326355862637781, -0.0007139246750831413},
      {"n4 noisy", 18074667496569185761ull, 66, true, -16070.909605218263, 331.30655768729616, 11.947491427391331, 0.26355407108659573, 0.00095852486296185116},
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
  const Pin pins[] = {
      {"d2 n1", 16465951872363356157ull, 5, true, -303.94466324602251, 4.7715079190901983, 0.309469979954761, 0.80633258276862863, -0.051578329992460162},
      {"d2 n2", 11559571154907190275ull, 30, true, -2281.4111760925125, 16.133179635908043, 0.17407906623001324, 0.65455496543246949, 0.0032685495396207122},
      {"d3 n1", 10689741185409011196ull, 40, true, -626.07175236036653, 12.04308300277253, 1.9699195497055042, 0.48866840537406936, -0.10756543161826292},
      {"d3 n2", 1200835872944465540ull, 37, true, -6459.6065318323836, 108.66305478760862, 0.19109506558033162, 0.43049637743646874, 0.0082074182681707488},
      {"d5 n1", 7238015058182282458ull, 35, true, -1572.244184176039, 28.842913275292446, 10.014213812353717, 0.16835439183992046, -0.098702162164207352},
      {"d5 n2", 5213999884755260382ull, 33, true, -21791.854867247006, 1318.3445217344329, -11.610481069346754, 0.24626954073870791, 0.00037711492547635778},
      {"d7 n1", 16909275202140708553ull, 27, true, -2573.5990915003172, 36.525528062932374, 13.777785866085249, 0.037500201332800895, -0.043621477269057171},
      {"d7 n2", 7030668372711917228ull, 32, true, -47494.832368847688, 7240.8183851891636, -55.340346780786895, 0.1653655944275669, -0.0034247630104043384},
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
    for (std::size_t n = 1; n <= 2; ++n) {
      rng::Xoshiro256 g(77 + i);
      const tomo::BasisSet mubs = qudit::mub_bases(d);
      const auto data = tomo::simulate_counts(states[n - 1], mubs, 200.0, 0.0, g);
      expect_pinned(pins[i++], data, tomo::maximum_likelihood(data, mubs));
    }
  }
}

}  // namespace
