#include "qfc/timebin/arrival_histogram.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/quantum/pauli.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::timebin {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

double ArrivalHistogram::central_to_side_ratio() const {
  const double side =
      (static_cast<double>(counts[1]) + static_cast<double>(counts[3])) / 2.0;
  if (side <= 0) return 0.0;
  return static_cast<double>(counts[2]) / side;
}

namespace {

/// Arrival-time POVM elements behind one analyzer (t in units of the
/// delay): E_0 = |S><S|/4 (short-short), E_1 = |a_φ><a_φ|/2 (interfering
/// middle slot), E_2 = |L><L|/4 (long-long). They sum to I/2 — the other
/// half exits the unused interferometer port.
std::array<CMat, 3> arrival_povm(double phase_rad) {
  CMat e0(2, 2), e2(2, 2);
  e0(0, 0) = cplx(0.25, 0);
  e2(1, 1) = cplx(0.25, 0);
  CMat e1 = quantum::projector(quantum::xy_eigenstate(phase_rad, +1));
  e1 *= cplx(0.5, 0);
  return {e0, e1, e2};
}

}  // namespace

ArrivalHistogram simulate_arrival_histogram(const quantum::DensityMatrix& rho,
                                            double alpha_rad, double beta_rad,
                                            std::uint64_t num_pairs,
                                            rng::Xoshiro256& g) {
  if (rho.num_qubits() != 2)
    throw std::invalid_argument("simulate_arrival_histogram: need a two-qubit state");
  if (num_pairs == 0)
    throw std::invalid_argument("simulate_arrival_histogram: zero pairs");

  const auto ea = arrival_povm(alpha_rad);
  const auto eb = arrival_povm(beta_rad);

  // Joint probabilities of the 9 (t_a, t_b) slot combinations.
  std::vector<double> probs;
  probs.reserve(9);
  for (int ta = 0; ta < 3; ++ta)
    for (int tb = 0; tb < 3; ++tb) {
      const double p = std::real(rho.expectation(linalg::kron(
          ea[static_cast<std::size_t>(ta)], eb[static_cast<std::size_t>(tb)])));
      probs.push_back(std::max(0.0, p));
    }

  ArrivalHistogram h;
  for (std::uint64_t i = 0; i < num_pairs; ++i) {
    const std::size_t combo = rng::sample_discrete(g, probs);
    const int ta = static_cast<int>(combo / 3);
    const int tb = static_cast<int>(combo % 3);
    ++h.counts[static_cast<std::size_t>(ta - tb + 2)];
  }
  return h;
}

}  // namespace qfc::timebin
