#include "qfc/quantum/gates.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/quantum/pauli.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::quantum {

using linalg::cplx;

const CMat& cz_gate() {
  static const CMat m{{cplx(1, 0), cplx(0, 0), cplx(0, 0), cplx(0, 0)},
                      {cplx(0, 0), cplx(1, 0), cplx(0, 0), cplx(0, 0)},
                      {cplx(0, 0), cplx(0, 0), cplx(1, 0), cplx(0, 0)},
                      {cplx(0, 0), cplx(0, 0), cplx(0, 0), cplx(-1, 0)}};
  return m;
}

StateVector apply_two_qubit(const StateVector& psi, const CMat& gate, std::size_t a,
                            std::size_t b) {
  if (gate.rows() != 4 || gate.cols() != 4)
    throw std::invalid_argument("apply_two_qubit: gate must be 4x4");
  const std::size_t n = psi.num_qubits();
  if (a >= n || b >= n || a == b)
    throw std::invalid_argument("apply_two_qubit: bad qubit indices");

  const std::size_t shift_a = n - 1 - a;
  const std::size_t shift_b = n - 1 - b;
  const std::size_t mask_a = std::size_t{1} << shift_a;
  const std::size_t mask_b = std::size_t{1} << shift_b;

  linalg::CVec out(psi.dim(), cplx(0, 0));
  for (std::size_t idx = 0; idx < psi.dim(); ++idx) {
    const std::size_t bit_a = (idx & mask_a) ? 1 : 0;
    const std::size_t bit_b = (idx & mask_b) ? 1 : 0;
    const std::size_t row = bit_a * 2 + bit_b;
    const std::size_t base = idx & ~(mask_a | mask_b);
    for (std::size_t col = 0; col < 4; ++col) {
      const cplx g = gate(row, col);
      if (g == cplx(0, 0)) continue;
      const std::size_t src = base | ((col & 2) ? mask_a : 0) | ((col & 1) ? mask_b : 0);
      out[idx] += g * psi.amplitude(src);
    }
  }
  return StateVector(std::move(out));
}

StateVector graph_state(std::size_t num_qubits,
                        const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  StateVector psi(num_qubits);
  for (std::size_t q = 0; q < num_qubits; ++q) psi = psi.apply_local(hadamard(), q);
  for (const auto& [i, j] : edges) psi = apply_two_qubit(psi, cz_gate(), i, j);
  return psi;
}

StateVector linear_cluster_state(std::size_t num_qubits) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i + 1 < num_qubits; ++i) edges.emplace_back(i, i + 1);
  return graph_state(num_qubits, edges);
}

StateVector cluster_from_bell_pairs(const StateVector& two_bell_pairs) {
  if (two_bell_pairs.num_qubits() != 4)
    throw std::invalid_argument("cluster_from_bell_pairs: need a 4-qubit state");
  // |Φ>⊗|Φ> with H on qubits 1 and 3 equals the graph state of edges
  // {0-1, 2-3}; one more CZ on 1-2 links the pairs into a linear cluster.
  StateVector psi = two_bell_pairs.apply_local(hadamard(), 1);
  psi = psi.apply_local(hadamard(), 3);
  return apply_two_qubit(psi, cz_gate(), 1, 2);
}

CMat cluster_stabilizer(std::size_t num_qubits, std::size_t site,
                        const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  if (site >= num_qubits) throw std::out_of_range("cluster_stabilizer: bad site");
  std::string labels(num_qubits, 'I');
  labels[site] = 'X';
  for (const auto& [i, j] : edges) {
    if (i == site) labels[j] = 'Z';
    if (j == site) labels[i] = 'Z';
  }
  return pauli_string(labels);
}

double expectation(const StateVector& psi, const CMat& op) {
  if (op.rows() != psi.dim() || op.cols() != psi.dim())
    throw std::invalid_argument("expectation: dimension mismatch");
  const linalg::CVec opv = op * psi.amplitudes();
  return std::real(linalg::vdot(psi.amplitudes(), opv));
}

namespace {

MeasurementOutcome project(const StateVector& psi, const CMat& p_plus, std::size_t q,
                           rng::Xoshiro256& g) {
  const std::size_t n = psi.num_qubits();
  // Apply the +1 projector on qubit q; the −1 branch is |ψ> − P|ψ>.
  const std::size_t shift = n - 1 - q;
  const std::size_t mask = std::size_t{1} << shift;

  linalg::CVec plus(psi.dim(), linalg::cplx(0, 0));
  for (std::size_t idx = 0; idx < psi.dim(); ++idx) {
    const std::size_t bit = (idx & mask) ? 1 : 0;
    const std::size_t base = idx & ~mask;
    plus[idx] = p_plus(bit, 0) * psi.amplitude(base) +
                p_plus(bit, 1) * psi.amplitude(base | mask);
  }
  double p = 0;
  for (const auto& amp : plus) p += std::norm(amp);
  p = std::min(1.0, std::max(0.0, p));

  MeasurementOutcome out{+1, psi, p};
  if (rng::sample_bernoulli(g, p)) {
    out.result = +1;
    out.probability = p;
    out.state = StateVector(std::move(plus));
  } else {
    out.result = -1;
    out.probability = 1 - p;
    linalg::CVec minus(psi.dim(), linalg::cplx(0, 0));
    for (std::size_t idx = 0; idx < psi.dim(); ++idx)
      minus[idx] = psi.amplitude(idx) - plus[idx];
    out.state = StateVector(std::move(minus));
  }
  return out;
}

}  // namespace

MeasurementOutcome measure_qubit_xy(const StateVector& psi, std::size_t q, double phi,
                                    rng::Xoshiro256& g) {
  if (q >= psi.num_qubits()) throw std::out_of_range("measure_qubit_xy: bad qubit");
  return project(psi, projector(xy_eigenstate(phi, +1)), q, g);
}

MeasurementOutcome measure_qubit_z(const StateVector& psi, std::size_t q,
                                   rng::Xoshiro256& g) {
  if (q >= psi.num_qubits()) throw std::out_of_range("measure_qubit_z: bad qubit");
  CMat p0(2, 2);
  p0(0, 0) = cplx(1, 0);
  return project(psi, p0, q, g);
}

}  // namespace qfc::quantum
