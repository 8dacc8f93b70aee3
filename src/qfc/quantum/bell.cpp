#include "qfc/quantum/bell.hpp"

#include <cmath>
#include <stdexcept>

namespace qfc::quantum {

using linalg::cplx;

StateVector bell_phi(double phase_rad) {
  const double s = 1.0 / std::sqrt(2.0);
  CVec v(4, cplx(0, 0));
  v[0] = cplx(s, 0);
  v[3] = s * std::exp(cplx(0, phase_rad));
  return StateVector(std::move(v));
}

DensityMatrix werner_phi(double visibility, double phase_rad) {
  return isotropic_noise(bell_phi(phase_rad), visibility);
}

StateVector bell_product(std::size_t num_pairs, double phase_rad) {
  if (num_pairs == 0) throw std::invalid_argument("bell_product: need at least one pair");
  StateVector out = bell_phi(phase_rad);
  for (std::size_t i = 1; i < num_pairs; ++i) out = out.tensor(bell_phi(phase_rad));
  return out;
}

StateVector maximally_entangled(std::size_t d) {
  return from_pair_amplitudes(CVec(d, cplx(1, 0)));
}

StateVector from_pair_amplitudes(const CVec& pair_amplitudes) {
  const std::size_t d = pair_amplitudes.size();
  if (d < 2) throw std::invalid_argument("from_pair_amplitudes: need d >= 2");
  CVec amps(d * d, cplx(0, 0));
  for (std::size_t k = 0; k < d; ++k) amps[k * d + k] = pair_amplitudes[k];
  return StateVector(std::move(amps), Dims{d, d});
}

DensityMatrix isotropic_noise(const StateVector& target, double visibility) {
  if (!(visibility >= 0 && visibility <= 1))
    throw std::invalid_argument("isotropic_noise: visibility outside [0,1]");
  const DensityMatrix pure{target};
  const DensityMatrix mixed{target.dims()};
  return pure.mix(mixed, 1.0 - visibility);
}

}  // namespace qfc::quantum
