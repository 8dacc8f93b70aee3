// Tests for gates, graph/cluster states and projective measurements —
// the one-way-computing extension (paper Sec. I, ref [3]).

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/gates.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/quantum/pauli.hpp"

namespace {

using namespace qfc::quantum;
using qfc::linalg::cplx;
using qfc::linalg::CMat;
using qfc::linalg::CVec;

/// CNOT (control = first tensor slot) and SWAP in the basis |q_a q_b>.
const CMat& cnot_gate() {
  static const CMat m{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
  return m;
}
const CMat& swap_gate() {
  static const CMat m{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
  return m;
}

TEST(Gates, CzIsUnitary) { EXPECT_TRUE(qfc::linalg::is_unitary(cz_gate())); }

TEST(Gates, CnotFlipsTarget) {
  // |10> -> |11>.
  CVec v(4, cplx(0, 0));
  v[2] = cplx(1, 0);
  const StateVector in(std::move(v));
  const StateVector out = apply_two_qubit(in, cnot_gate(), 0, 1);
  EXPECT_NEAR(out.probability(3), 1.0, 1e-12);
}

TEST(Gates, CnotWithHadamardMakesBellState) {
  StateVector psi(2);
  psi = psi.apply_local(hadamard(), 0);
  psi = apply_two_qubit(psi, cnot_gate(), 0, 1);
  EXPECT_NEAR(psi.overlap_probability(bell_phi()), 1.0, 1e-12);
}

TEST(Gates, SwapExchangesQubits) {
  // |01> -> |10>.
  CVec v(4, cplx(0, 0));
  v[1] = cplx(1, 0);
  const StateVector out = apply_two_qubit(StateVector(std::move(v)), swap_gate(), 0, 1);
  EXPECT_NEAR(out.probability(2), 1.0, 1e-12);
}

TEST(Gates, ApplyOnNonAdjacentQubits) {
  // CNOT(control 0, target 2) on |100> -> |101>.
  CVec v(8, cplx(0, 0));
  v[4] = cplx(1, 0);
  const StateVector out = apply_two_qubit(StateVector(std::move(v)), cnot_gate(), 0, 2);
  EXPECT_NEAR(out.probability(5), 1.0, 1e-12);
}

TEST(Gates, ReversedIndexOrder) {
  // CNOT with control 1, target 0 on |01> -> |11>.
  CVec v(4, cplx(0, 0));
  v[1] = cplx(1, 0);
  const StateVector out = apply_two_qubit(StateVector(std::move(v)), cnot_gate(), 1, 0);
  EXPECT_NEAR(out.probability(3), 1.0, 1e-12);
}

TEST(Gates, BadIndicesThrow) {
  const StateVector psi(2);
  EXPECT_THROW(apply_two_qubit(psi, cnot_gate(), 0, 0), std::invalid_argument);
  EXPECT_THROW(apply_two_qubit(psi, cnot_gate(), 0, 2), std::invalid_argument);
}

TEST(Cluster, StabilizersAreSatisfied) {
  for (std::size_t n : {2u, 3u, 4u, 5u}) {
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
    const StateVector cluster = linear_cluster_state(n);
    for (std::size_t site = 0; site < n; ++site) {
      const auto k = cluster_stabilizer(n, site, edges);
      EXPECT_NEAR(expectation(cluster, k), 1.0, 1e-10)
          << "n=" << n << " site=" << site;
    }
  }
}

TEST(Cluster, RandomPauliIsNotAStabilizer) {
  const StateVector cluster = linear_cluster_state(3);
  EXPECT_LT(std::abs(expectation(cluster, pauli_string("XXX"))), 0.9);
}

TEST(Cluster, FromBellPairsMatchesLinearCluster) {
  // Two comb Bell pairs + local ops + one CZ = 4-qubit linear cluster
  // (up to the CZ ordering convention, exactly).
  const StateVector pairs = bell_product(2);
  const StateVector built = cluster_from_bell_pairs(pairs);
  // Verify all four stabilizers of the linear cluster.
  std::vector<std::pair<std::size_t, std::size_t>> edges{{0, 1}, {1, 2}, {2, 3}};
  for (std::size_t site = 0; site < 4; ++site) {
    const auto k = cluster_stabilizer(4, site, edges);
    EXPECT_NEAR(expectation(built, k), 1.0, 1e-10) << "site " << site;
  }
  EXPECT_NEAR(built.overlap_probability(linear_cluster_state(4)), 1.0, 1e-10);
}

TEST(Cluster, GraphStateOfTriangle) {
  const std::vector<std::pair<std::size_t, std::size_t>> tri{{0, 1}, {1, 2}, {0, 2}};
  const StateVector g = graph_state(3, tri);
  for (std::size_t site = 0; site < 3; ++site)
    EXPECT_NEAR(expectation(g, cluster_stabilizer(3, site, tri)), 1.0, 1e-10);
}

TEST(Measurement, ZOnPlusIsFair) {
  qfc::rng::Xoshiro256 g(11);
  StateVector plus(1);
  plus = plus.apply_local(hadamard(), 0);
  int ones = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto m = measure_qubit_z(plus, 0, g);
    EXPECT_NEAR(m.probability, 0.5, 1e-12);
    if (m.result == -1) ++ones;
  }
  EXPECT_NEAR(ones, n / 2, 200);
}

TEST(Measurement, CollapseIsConsistent) {
  qfc::rng::Xoshiro256 g(12);
  // Measure qubit 0 of a Bell pair in Z: outcome must correlate perfectly
  // with a subsequent Z measurement of qubit 1.
  for (int i = 0; i < 50; ++i) {
    const auto m0 = measure_qubit_z(bell_phi(), 0, g);
    const auto m1 = measure_qubit_z(m0.state, 1, g);
    EXPECT_EQ(m0.result, m1.result);
  }
}

TEST(Measurement, XyBasisOnBellGivesCorrelations) {
  qfc::rng::Xoshiro256 g(13);
  // E(α, β) = cos(α + β) for |Φ(0)>: sample and compare.
  const double alpha = 0.3, beta = 0.5;
  int same = 0;
  const int n = 6000;
  for (int i = 0; i < n; ++i) {
    const auto ma = measure_qubit_xy(bell_phi(), 0, alpha, g);
    const auto mb = measure_qubit_xy(ma.state, 1, beta, g);
    if (ma.result == mb.result) ++same;
  }
  const double e = (2.0 * same - n) / n;
  EXPECT_NEAR(e, std::cos(alpha + beta), 0.05);
}

TEST(Measurement, OneWayTeleportationAlongClusterWire) {
  // 2-qubit cluster CZ|++>: an X measurement of qubit 0 with outcome s
  // leaves qubit 1 in H|+_s> — i.e. |0> for s = +1, |1> for s = −1 (the
  // input |+> teleports with a Hadamard byproduct). A Z measurement of
  // qubit 1 must therefore reproduce s deterministically.
  qfc::rng::Xoshiro256 g(14);
  for (int i = 0; i < 32; ++i) {
    const StateVector cluster = linear_cluster_state(2);
    const auto m0 = measure_qubit_xy(cluster, 0, 0.0, g);  // X basis
    const auto m1 = measure_qubit_z(m0.state, 1, g);       // remaining qubit
    EXPECT_EQ(m1.result, m0.result) << "cluster wire correlation";
    EXPECT_NEAR(m1.probability, 1.0, 1e-10);
  }
}

}  // namespace
