#include "qfc/timebin/franson.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::timebin {

double coincidence_probability(const quantum::DensityMatrix& rho,
                               const UnbalancedMichelson& analyzer_a,
                               const UnbalancedMichelson& analyzer_b) {
  if (rho.num_qubits() != 2)
    throw std::invalid_argument("coincidence_probability: need a two-qubit state");
  const linalg::CMat joint = linalg::kron(analyzer_a.analyzer_projector(),
                                          analyzer_b.analyzer_projector());
  // Each analyzer post-selects its middle slot with probability 1/2
  // (lossless), and the projective outcome |a><a| absorbs the rest; the
  // product of the interferometers' post-selection factors rescales the
  // projector expectation into an absolute probability per pair.
  const double ps = analyzer_a.postselection_probability() *
                    analyzer_b.postselection_probability();
  return rho.probability(joint) * ps;
}

FringeScan simulate_fringe(const quantum::DensityMatrix& rho, double pairs_per_point,
                           double accidental_floor_per_point, int num_points,
                           double analyzer_delay_s, double fixed_phase_rad,
                           rng::Xoshiro256& g) {
  if (num_points < 4) throw std::invalid_argument("simulate_fringe: need >= 4 points");
  if (pairs_per_point <= 0)
    throw std::invalid_argument("simulate_fringe: pairs_per_point <= 0");
  if (accidental_floor_per_point < 0)
    throw std::invalid_argument("simulate_fringe: negative accidental floor");

  FringeScan scan;
  scan.phase_rad.reserve(static_cast<std::size_t>(num_points));
  scan.counts.reserve(static_cast<std::size_t>(num_points));
  scan.expected.reserve(static_cast<std::size_t>(num_points));

  const UnbalancedMichelson fixed(analyzer_delay_s, fixed_phase_rad);
  for (int i = 0; i < num_points; ++i) {
    const double phi =
        2.0 * photonics::pi * static_cast<double>(i) / static_cast<double>(num_points);
    const UnbalancedMichelson scanned(analyzer_delay_s, phi);
    const double mean = pairs_per_point * coincidence_probability(rho, scanned, fixed) +
                        accidental_floor_per_point;
    scan.phase_rad.push_back(phi);
    scan.expected.push_back(mean);
    scan.counts.push_back(static_cast<double>(rng::sample_poisson(g, mean)));
  }
  return scan;
}


}  // namespace qfc::timebin
