#include "qfc/timebin/interferometer.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/quantum/pauli.hpp"

namespace qfc::timebin {

using linalg::cplx;
using linalg::CMat;

UnbalancedMichelson::UnbalancedMichelson(double delay_s, double phase_rad,
                                         double arm_transmission)
    : delay_(delay_s), phase_(phase_rad), arm_amp_(arm_transmission) {
  if (delay_s <= 0) throw std::invalid_argument("UnbalancedMichelson: delay <= 0");
  if (arm_transmission <= 0 || arm_transmission > 1)
    throw std::invalid_argument("UnbalancedMichelson: arm transmission outside (0,1]");
}

cplx UnbalancedMichelson::short_path_amplitude() const {
  return cplx(0.5 * arm_amp_, 0);
}

cplx UnbalancedMichelson::long_path_amplitude() const {
  return 0.5 * arm_amp_ * std::exp(cplx(0, phase_));
}

CMat UnbalancedMichelson::analyzer_projector() const {
  return quantum::projector(quantum::xy_eigenstate(phase_, +1));
}

double UnbalancedMichelson::postselection_probability() const {
  return std::norm(short_path_amplitude()) + std::norm(long_path_amplitude());
}

double mismatch_visibility_penalty(double delay_mismatch_s,
                                   double photon_coherence_time_s) {
  if (photon_coherence_time_s <= 0)
    throw std::invalid_argument("mismatch_visibility_penalty: coherence time <= 0");
  return std::exp(-std::abs(delay_mismatch_s) / photon_coherence_time_s);
}

}  // namespace qfc::timebin
