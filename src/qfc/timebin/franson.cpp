#include "qfc/timebin/franson.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/rng/distributions.hpp"
#include "qfc/tomo/tomography.hpp"

namespace qfc::timebin {

FringeScan simulate_fringe(const quantum::DensityMatrix& rho, double events_per_point,
                           double floor_per_point, int num_points,
                           const FringePhases& phases, rng::Xoshiro256& g) {
  if (num_points < 4) throw std::invalid_argument("simulate_fringe: need >= 4 points");
  if (!(events_per_point > 0) || !std::isfinite(events_per_point))
    throw std::invalid_argument("simulate_fringe: events_per_point must be finite and > 0");
  if (!(floor_per_point >= 0) || !std::isfinite(floor_per_point))
    throw std::invalid_argument("simulate_fringe: floor_per_point must be finite and >= 0");

  FringeScan scan;
  for (int i = 0; i < num_points; ++i) {
    const double theta =
        2.0 * photonics::pi * static_cast<double>(i) / static_cast<double>(num_points);
    std::vector<linalg::CMat> bases;
    for (double phi : phases(theta)) bases.push_back(quantum::xy_basis(phi));
    // Outcome 0 is '+' on every particle.
    const double mean =
        events_per_point * tomo::outcome_probabilities(rho, bases)[0] + floor_per_point;
    scan.phase_rad.push_back(theta);
    scan.expected.push_back(mean);
    scan.counts.push_back(static_cast<double>(rng::sample_poisson(g, mean)));
  }
  return scan;
}

double mismatch_visibility_penalty(double delay_mismatch_s,
                                   double photon_coherence_time_s) {
  if (photon_coherence_time_s <= 0)
    throw std::invalid_argument("mismatch_visibility_penalty: coherence time <= 0");
  return std::exp(-std::abs(delay_mismatch_s) / photon_coherence_time_s);
}

}  // namespace qfc::timebin
