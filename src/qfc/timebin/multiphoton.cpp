#include "qfc/timebin/multiphoton.hpp"

#include <algorithm>
#include <stdexcept>

namespace qfc::timebin {

double FourfoldFringe::visibility() const {
  double max_e = 0, min_e = 1e300;
  for (double mean : expected) {
    max_e = std::max(max_e, mean);
    min_e = std::min(min_e, mean);
  }
  return (max_e + min_e) > 0 ? (max_e - min_e) / (max_e + min_e) : 0.0;
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
