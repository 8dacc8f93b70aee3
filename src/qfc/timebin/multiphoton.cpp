#include "qfc/timebin/multiphoton.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::timebin {

using photonics::pi;

double fourfold_probability(const quantum::DensityMatrix& rho4, double theta_rad) {
  if (rho4.num_qubits() != 4)
    throw std::invalid_argument("fourfold_probability: need a four-qubit state");
  const linalg::CMat p1 = quantum::projector(quantum::xy_eigenstate(theta_rad, +1));
  const linalg::CMat p2 = linalg::kron(p1, p1);
  const linalg::CMat p4 = linalg::kron(p2, p2);
  return rho4.probability(p4);
}

FourfoldFringe simulate_fourfold_fringe(const quantum::DensityMatrix& rho4,
                                        double events_per_point,
                                        double accidental_floor, int num_points,
                                        rng::Xoshiro256& g) {
  if (num_points < 4)
    throw std::invalid_argument("simulate_fourfold_fringe: need >= 4 points");
  if (events_per_point <= 0)
    throw std::invalid_argument("simulate_fourfold_fringe: events_per_point <= 0");
  if (accidental_floor < 0)
    throw std::invalid_argument("simulate_fourfold_fringe: negative floor");

  FourfoldFringe out;
  double max_e = 0, min_e = 1e300;
  for (int i = 0; i < num_points; ++i) {
    const double theta = 2.0 * pi * static_cast<double>(i) / static_cast<double>(num_points);
    const double mean =
        events_per_point * fourfold_probability(rho4, theta) + accidental_floor;
    out.phase_rad.push_back(theta);
    out.expected.push_back(mean);
    out.counts.push_back(static_cast<double>(rng::sample_poisson(g, mean)));
    max_e = std::max(max_e, mean);
    min_e = std::min(min_e, mean);
  }
  out.visibility = (max_e + min_e) > 0 ? (max_e - min_e) / (max_e + min_e) : 0.0;
  return out;
}

double fourfold_visibility(double pair_visibility, double accidental_fraction) {
  if (pair_visibility < 0 || pair_visibility > 1)
    throw std::invalid_argument("fourfold_visibility: V outside [0,1]");
  if (accidental_fraction < 0)
    throw std::invalid_argument("fourfold_visibility: negative accidental fraction");
  const double v = pair_visibility;
  // Fringe (1 + V cos x)² has mean 1 + V²/2; a flat background at fraction
  // f of the mean shifts both extrema by A = f (1 + V²/2):
  //   V₄ = [(1+V)² − (1−V)²] / [(1+V)² + (1−V)² + 2A] = 2V / (1 + V² + A).
  const double a = accidental_fraction * (1.0 + v * v / 2.0);
  return 2.0 * v / (1.0 + v * v + a);
}

}  // namespace qfc::timebin
