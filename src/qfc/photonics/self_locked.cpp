#include "qfc/photonics/self_locked.hpp"

#include <cmath>

#include "qfc/photonics/constants.hpp"

namespace qfc::photonics {

SelfLockedLoop::SelfLockedLoop(double loop_length_m, double loop_index)
    : length_m_(loop_length_m), index_(loop_index) {
  if (loop_length_m <= 0) throw std::invalid_argument("SelfLockedLoop: length <= 0");
  if (loop_index < 1.0) throw std::invalid_argument("SelfLockedLoop: index < 1");
}

double SelfLockedLoop::loop_fsr_hz() const {
  return speed_of_light_m_per_s / (index_ * length_m_);
}

double SelfLockedLoop::lasing_detuning_hz(double ring_resonance_hz) const {
  if (ring_resonance_hz <= 0)
    throw std::invalid_argument("lasing_detuning_hz: resonance <= 0");
  const double fsr = loop_fsr_hz();
  // Loop-mode grid is anchored at multiples of the loop FSR; the lasing
  // mode is the grid point nearest the resonance.
  const double frac = std::remainder(ring_resonance_hz, fsr);
  return frac;  // in (−fsr/2, +fsr/2]
}

}  // namespace qfc::photonics
