// Tests for the quantum-information substrate (S4): states, Paulis, Bell
// states, entanglement measures, Fock statistics.

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/fock.hpp"
#include "qfc/quantum/gates.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/quantum/state.hpp"
#include "qfc/timebin/chsh.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using qfc::linalg::cplx;
using qfc::linalg::CMat;
using qfc::linalg::CVec;
using namespace qfc::quantum;

TEST(StateVector, DefaultIsGroundState) {
  const StateVector psi(2);
  EXPECT_EQ(psi.dim(), 4u);
  EXPECT_NEAR(psi.probability(0), 1.0, 1e-15);
  EXPECT_NEAR(psi.probability(3), 0.0, 1e-15);
}

TEST(StateVector, NormalizesInput) {
  const StateVector psi(CVec{cplx(3, 0), cplx(4, 0)});
  EXPECT_NEAR(psi.probability(0), 9.0 / 25.0, 1e-12);
  EXPECT_NEAR(psi.probability(1), 16.0 / 25.0, 1e-12);
}

TEST(StateVector, RejectsBadDimensions) {
  EXPECT_THROW(StateVector(CVec(3, cplx(1, 0))), std::invalid_argument);
  EXPECT_THROW(StateVector(CVec(4, cplx(0, 0))), std::invalid_argument);  // zero vec
  EXPECT_THROW(StateVector(0), std::invalid_argument);
}

/// True if `f` throws std::invalid_argument whose message names `who`.
template <class F>
bool throws_naming(F f, const std::string& who) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return std::string(e.what()).find(who) != std::string::npos;
  }
  return false;
}

TEST(StateVector, RejectsNonFiniteAmplitudes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(throws_naming([&] { StateVector(CVec{cplx(nan, 0), cplx(1, 0)}); },
                            "StateVector"));
  EXPECT_TRUE(throws_naming([&] { StateVector(CVec{cplx(inf, 0), cplx(1, 0)}); },
                            "StateVector"));
  EXPECT_TRUE(throws_naming(
      [&] { StateVector(CVec{cplx(1, 0), cplx(0, nan), cplx(1, 0)}, Dims{3}); },
      "StateVector"));
  EXPECT_TRUE(throws_naming(
      [&] { from_pair_amplitudes(CVec{cplx(inf, 0), cplx(1, 0), cplx(1, 0)}); },
      "StateVector"));

  CMat rho = CMat::identity(2) * cplx(0.5, 0);
  rho(0, 1) = cplx(nan, 0);
  EXPECT_TRUE(throws_naming([&] { DensityMatrix{rho}; }, "DensityMatrix"));
  rho(0, 1) = cplx(0, inf);
  EXPECT_TRUE(throws_naming([&] { DensityMatrix(rho, Dims{2}); }, "DensityMatrix"));
}

TEST(StateVector, TensorStructure) {
  const StateVector zero(1);
  const StateVector one(CVec{cplx(0, 0), cplx(1, 0)});
  const StateVector z1 = zero.tensor(one);  // |01>
  EXPECT_NEAR(z1.probability(1), 1.0, 1e-15);
}

TEST(StateVector, ApplySingleQubitOnEachPosition) {
  // X on qubit 0 of |00> -> |10>; X on qubit 1 -> |01>.
  const StateVector psi(2);
  EXPECT_NEAR(psi.apply_local(pauli_x(), 0).probability(2), 1.0, 1e-12);
  EXPECT_NEAR(psi.apply_local(pauli_x(), 1).probability(1), 1.0, 1e-12);
  EXPECT_THROW(psi.apply_local(pauli_x(), 2), std::out_of_range);
}

TEST(StateVector, HadamardMakesUniform) {
  StateVector psi(1);
  psi = psi.apply_local(hadamard(), 0);
  EXPECT_NEAR(psi.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(psi.probability(1), 0.5, 1e-12);
}

TEST(StateVector, OverlapOfBellPair) {
  const StateVector phi0 = bell_phi(0.0);
  const StateVector phi_pi = bell_phi(3.14159265358979);
  EXPECT_NEAR(phi0.overlap_probability(phi0), 1.0, 1e-12);
  EXPECT_NEAR(phi0.overlap_probability(phi_pi), 0.0, 1e-12);
}

TEST(Register, QubitOnlyEntryPointsRejectNonQubitRegisters) {
  qfc::rng::Xoshiro256 g(3);
  EXPECT_THROW(concurrence(DensityMatrix(Dims{4})), std::invalid_argument);
  const StateVector qubit_qutrit(Dims{2, 3});
  EXPECT_THROW(apply_two_qubit(qubit_qutrit, cz_gate(), 0, 1), std::invalid_argument);
  EXPECT_THROW(measure_qubit_z(qubit_qutrit, 0, g), std::invalid_argument);
  const DensityMatrix qutrits(Dims{3, 3});
  EXPECT_THROW(qfc::timebin::chsh_s_value(qutrits, qfc::timebin::optimal_settings_for_phi(0)),
               std::invalid_argument);
  EXPECT_THROW(qfc::tomo::simulate_counts(qutrits, 100, {}, g), std::invalid_argument);
}

TEST(Pauli, AlgebraRelations) {
  // X² = I, XY = iZ, anticommutation.
  EXPECT_LT((pauli_x() * pauli_x() - pauli_i()).max_abs(), 1e-15);
  CMat iz = pauli_z();
  iz *= cplx(0, 1);
  EXPECT_LT((pauli_x() * pauli_y() - iz).max_abs(), 1e-15);
  const CMat anti = pauli_x() * pauli_z() + pauli_z() * pauli_x();
  EXPECT_LT(anti.max_abs(), 1e-15);
}

TEST(Pauli, StringBuildsKron) {
  const CMat xz = pauli_string("XZ");
  EXPECT_LT((xz - qfc::linalg::kron(pauli_x(), pauli_z())).max_abs(), 1e-15);
  EXPECT_THROW(pauli_string("XQ"), std::invalid_argument);
  EXPECT_THROW(pauli_string(""), std::invalid_argument);
}

TEST(Pauli, XyObservableEigenstates) {
  for (double phi : {0.0, 0.7, 2.0}) {
    const CMat a = xy_observable(phi);
    for (int sign : {+1, -1}) {
      const CVec v = xy_eigenstate(phi, sign);
      const CVec av = a * v;
      for (std::size_t i = 0; i < 2; ++i)
        EXPECT_NEAR(std::abs(av[i] - static_cast<double>(sign) * v[i]), 0.0, 1e-12);
    }
  }
}

TEST(DensityMatrix, PureStateProperties) {
  const DensityMatrix rho{bell_phi()};
  EXPECT_NEAR(purity(rho), 1.0, 1e-12);
  EXPECT_NEAR(von_neumann_entropy_bits(rho), 0.0, 1e-9);
}

TEST(DensityMatrix, MaximallyMixed) {
  const DensityMatrix rho(Dims{2, 2});
  EXPECT_NEAR(purity(rho), 0.25, 1e-12);
  EXPECT_NEAR(von_neumann_entropy_bits(rho), 2.0, 1e-9);
}

TEST(DensityMatrix, ValidatesInput) {
  CMat bad = CMat::identity(4);  // trace 4
  EXPECT_THROW(DensityMatrix{bad}, std::invalid_argument);
  CMat nonherm(2, 2);
  nonherm(0, 0) = cplx(1, 0);
  nonherm(0, 1) = cplx(0.5, 0);
  EXPECT_THROW(DensityMatrix{nonherm}, std::invalid_argument);
}

TEST(DensityMatrix, PartialTraceOfBellIsMixed) {
  const DensityMatrix rho{bell_phi()};
  const DensityMatrix reduced = rho.partial_trace_keep({0});
  EXPECT_EQ(reduced.dim(), 2u);
  EXPECT_NEAR(purity(reduced), 0.5, 1e-12);  // maximally mixed qubit
  EXPECT_NEAR(std::real(reduced.matrix()(0, 0)), 0.5, 1e-12);
}

TEST(DensityMatrix, PartialTraceOfProductRecoversFactors) {
  const DensityMatrix a{StateVector(CVec{cplx(0.6, 0), cplx(0.8, 0)})};
  const DensityMatrix b{StateVector(CVec{cplx(1, 0), cplx(0, 0)})};
  const DensityMatrix ab = a.tensor(b);
  const DensityMatrix ra = ab.partial_trace_keep({0});
  EXPECT_LT((ra.matrix() - a.matrix()).max_abs(), 1e-12);
  const DensityMatrix rb = ab.partial_trace_keep({1});
  EXPECT_LT((rb.matrix() - b.matrix()).max_abs(), 1e-12);
}

TEST(DensityMatrix, MixInterpolatesLinearly) {
  const DensityMatrix pure{bell_phi()};
  const DensityMatrix mixed(Dims{2, 2});
  const DensityMatrix half = pure.mix(mixed, 0.5);
  EXPECT_NEAR(std::real(half.matrix()(0, 0)), 0.5 * 0.5 + 0.5 * 0.25, 1e-12);
  EXPECT_THROW(pure.mix(mixed, 1.5), std::invalid_argument);
}

TEST(Measures, FidelityBasicProperties) {
  const DensityMatrix bell{bell_phi()};
  const DensityMatrix mixed(Dims{2, 2});
  EXPECT_NEAR(fidelity(bell, bell), 1.0, 1e-9);
  EXPECT_NEAR(fidelity(bell, mixed), 0.25, 1e-9);
  EXPECT_NEAR(fidelity(bell, bell_phi()), 1.0, 1e-9);
}

TEST(Measures, FidelitySymmetric) {
  const DensityMatrix a = werner_phi(0.8);
  const DensityMatrix b = werner_phi(0.3);
  EXPECT_NEAR(fidelity(a, b), fidelity(b, a), 1e-9);
}

TEST(Measures, WernerFidelityClosedForm) {
  // F(Werner(V), Phi) = (1 + 3V)/4.
  for (double v : {0.0, 0.25, 0.5, 0.83, 1.0}) {
    const DensityMatrix w = werner_phi(v);
    EXPECT_NEAR(fidelity(w, bell_phi()), (1 + 3 * v) / 4, 1e-9) << "V=" << v;
  }
}

TEST(Measures, TraceDistanceBounds) {
  const DensityMatrix bell{bell_phi()};
  const DensityMatrix mixed(Dims{2, 2});
  const double d = trace_distance(bell, mixed);
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 1.0);
  EXPECT_NEAR(trace_distance(bell, bell), 0.0, 1e-10);
}

TEST(Measures, ConcurrenceOfWernerStates) {
  // C(Werner V) = max(0, (3V − 1)/2).
  for (double v : {0.0, 0.2, 1.0 / 3.0, 0.5, 0.83, 1.0}) {
    const double expected = std::max(0.0, (3 * v - 1) / 2);
    EXPECT_NEAR(concurrence(werner_phi(v)), expected, 1e-6) << "V=" << v;
  }
}

TEST(Measures, NegativityDetectsEntanglement) {
  EXPECT_NEAR(negativity(DensityMatrix{bell_phi()}, 1), 0.5, 1e-9);
  EXPECT_NEAR(negativity(DensityMatrix(Dims{2, 2}), 1), 0.0, 1e-10);
  // Werner separability threshold V = 1/3.
  EXPECT_NEAR(negativity(werner_phi(1.0 / 3.0), 1), 0.0, 1e-8);
  EXPECT_GT(negativity(werner_phi(0.5), 1), 0.01);
}

TEST(Measures, SchmidtCoefficientsOfBell) {
  const auto coeffs = schmidt_coefficients(bell_phi(), 1);
  ASSERT_EQ(coeffs.size(), 2u);
  EXPECT_NEAR(coeffs[0], 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(coeffs[1], 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(Measures, SchmidtOfProductStateIsRankOne) {
  const StateVector prod = StateVector(1).tensor(StateVector(1));
  const auto coeffs = schmidt_coefficients(prod, 1);
  EXPECT_NEAR(coeffs[0], 1.0, 1e-12);
  EXPECT_NEAR(coeffs[1], 0.0, 1e-12);
}

TEST(Measures, MatrixLevelOverloadsHandleNonPowerOfTwoDims) {
  // The matrix-level overloads back the qudit layer: a maximally entangled
  // qutrit pair is a 9x9 density matrix no qubit register can represent.
  const std::size_t d = 3;
  CVec amps(d * d, cplx(0, 0));
  for (std::size_t k = 0; k < d; ++k) amps[k * d + k] = cplx(1, 0);
  qfc::linalg::vnormalize(amps);
  const CMat rho = qfc::linalg::outer(amps, amps);

  EXPECT_NEAR(purity(rho), 1.0, 1e-12);
  EXPECT_NEAR(fidelity(rho, amps), 1.0, 1e-12);
  EXPECT_NEAR(negativity(rho, d, d), (static_cast<double>(d) - 1) / 2, 1e-9);
  const auto lambda = schmidt_coefficients(amps, d, d);
  ASSERT_EQ(lambda.size(), d);
  for (double l : lambda) EXPECT_NEAR(l, 1.0 / std::sqrt(3.0), 1e-12);

  CMat mixed = CMat::identity(d * d);
  mixed *= cplx(1.0 / 9.0, 0);
  EXPECT_NEAR(von_neumann_entropy_bits(mixed), 2 * std::log2(3.0), 1e-9);
  EXPECT_NEAR(negativity(mixed, d, d), 0.0, 1e-10);
  EXPECT_NEAR(trace_distance(rho, rho), 0.0, 1e-10);
  EXPECT_NEAR(fidelity(rho, mixed), 1.0 / 9.0, 1e-9);
}

TEST(Measures, MatrixLevelValidation) {
  const CMat rho = CMat::identity(6) * cplx(1.0 / 6.0, 0);
  EXPECT_THROW(negativity(rho, 4, 2), std::invalid_argument);  // 4*2 != 6
  EXPECT_THROW(schmidt_coefficients(CVec(6, cplx(1, 0)), 5, 2), std::invalid_argument);
  EXPECT_NEAR(negativity(rho, 2, 3), 0.0, 1e-10);
}

TEST(Bell, ProductStateHasPerPairStructure) {
  const StateVector four = bell_product(2);
  EXPECT_EQ(four.num_qubits(), 4u);
  // Amplitudes only on |0000>, |0011>, |1100>, |1111>.
  EXPECT_NEAR(four.probability(0b0000), 0.25, 1e-12);
  EXPECT_NEAR(four.probability(0b0011), 0.25, 1e-12);
  EXPECT_NEAR(four.probability(0b1100), 0.25, 1e-12);
  EXPECT_NEAR(four.probability(0b1111), 0.25, 1e-12);
  EXPECT_NEAR(four.probability(0b0101), 0.0, 1e-12);
}

TEST(Bell, IsotropicNoiseFidelity) {
  const StateVector target = bell_product(2);
  const DensityMatrix noisy = isotropic_noise(target, 0.6);
  EXPECT_NEAR(fidelity(noisy, target), 0.6 + 0.4 / 16.0, 1e-9);
}

TEST(Fock, ThermalStatisticsNormalized) {
  const TwoModeSqueezedVacuum tmsv(0.3);
  double total = 0;
  for (std::size_t n = 0; n < 200; ++n) total += tmsv.pair_number_probability(n);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(tmsv.pair_number_probability(0), 1 / 1.3, 1e-12);
}

TEST(Fock, HeraldedG2VanishesAtLowMu) {
  const TwoModeSqueezedVacuum low(1e-4);
  EXPECT_LT(low.heralded_g2(0.5), 1e-3);
  const TwoModeSqueezedVacuum zero(0.0);
  EXPECT_DOUBLE_EQ(zero.heralded_g2(0.5), 0.0);
}

TEST(Fock, HeraldedG2GrowsWithMu) {
  const double g2_small = TwoModeSqueezedVacuum(0.01).heralded_g2(0.3);
  const double g2_large = TwoModeSqueezedVacuum(0.5).heralded_g2(0.3);
  EXPECT_GT(g2_large, g2_small);
  // Small-mu expansion: g2 ≈ 4μ (bucket detector, low efficiency).
  EXPECT_NEAR(g2_small, 4 * 0.01, 0.01);
}

TEST(Fock, InvalidArgumentsThrow) {
  EXPECT_THROW(TwoModeSqueezedVacuum(-0.1), std::invalid_argument);
  EXPECT_THROW(TwoModeSqueezedVacuum(0.1).heralded_g2(0.0), std::invalid_argument);
}

}  // namespace
