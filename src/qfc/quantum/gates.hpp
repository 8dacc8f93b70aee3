#pragma once

/// \file gates.hpp
/// Multi-qubit gates, projective measurements and graph/cluster states —
/// the minimal toolbox for the paper's "quantum computation" application
/// (Sec. I, ref [3]: one-way computing consumes cluster states built from
/// entangled photon pairs like the ones the comb produces).

#include <vector>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::quantum {

/// Two-qubit gates in the computational basis |q_a q_b>.
const CMat& cz_gate();

/// Apply a 4x4 two-qubit gate to qubits (a, b) of an n-qubit state
/// (a = control/first tensor slot). a != b required.
StateVector apply_two_qubit(const StateVector& psi, const CMat& gate, std::size_t a,
                            std::size_t b);

/// |+>^{⊗n} with CZ on every edge: graph state. Edges are (i, j) pairs.
StateVector graph_state(std::size_t num_qubits,
                        const std::vector<std::pair<std::size_t, std::size_t>>& edges);

/// Linear cluster state of n qubits (edges i—i+1).
StateVector linear_cluster_state(std::size_t num_qubits);

/// Convert two time-bin Bell pairs |Φ>⊗|Φ> (qubits 0,1 and 2,3) into a
/// 4-qubit linear cluster state by local Hadamards + one CZ — how a comb
/// source feeds a one-way quantum computer.
StateVector cluster_from_bell_pairs(const StateVector& two_bell_pairs);

/// Stabilizer generator K_i = X_i ⊗ Z_neighbors of a graph state; the
/// state is the unique +1 eigenstate of all of them.
CMat cluster_stabilizer(std::size_t num_qubits, std::size_t site,
                        const std::vector<std::pair<std::size_t, std::size_t>>& edges);

/// Expectation <psi|K|psi> of an operator.
double expectation(const StateVector& psi, const CMat& op);

/// Outcome of a projective single-qubit measurement.
struct MeasurementOutcome {
  int result = +1;        ///< ±1 eigenvalue observed
  StateVector state;      ///< post-measurement (collapsed, renormalized) state
  double probability = 0; ///< probability of this outcome
};

/// Measure qubit q in the X-Y-plane basis at angle phi (the time-bin
/// analyzer measurement); Z basis via `measure_qubit_z`.
MeasurementOutcome measure_qubit_xy(const StateVector& psi, std::size_t q, double phi,
                                    rng::Xoshiro256& g);

MeasurementOutcome measure_qubit_z(const StateVector& psi, std::size_t q,
                                   rng::Xoshiro256& g);

}  // namespace qfc::quantum
