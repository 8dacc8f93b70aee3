#pragma once

/// \file self_locked.hpp
/// The self-locked intra-cavity pumping scheme of Sec. II (ref [6]): the
/// microring sits inside an amplified fiber loop, so the system lases on
/// the external-cavity (loop) mode with the highest net gain — the one
/// closest to the drifting ring resonance. The pump therefore tracks the
/// resonance automatically; the residual pump-resonance detuning is
/// bounded by half the loop mode spacing, with no active stabilization.

#include <stdexcept>

namespace qfc::photonics {

class SelfLockedLoop {
 public:
  /// \param loop_length_m  physical fiber-loop length (meters)
  /// \param loop_index     effective index of the loop fiber
  explicit SelfLockedLoop(double loop_length_m = 10.0, double loop_index = 1.468);

  /// External-cavity mode spacing c/(n L).
  double loop_fsr_hz() const;

  /// Detuning between the lasing line (nearest loop mode) and the ring
  /// resonance at `ring_resonance_hz`: folded into ±loop_fsr/2.
  double lasing_detuning_hz(double ring_resonance_hz) const;

  /// Worst-case |detuning| = loop_fsr/2.
  double max_detuning_hz() const { return loop_fsr_hz() / 2.0; }

 private:
  double length_m_;
  double index_;
};

}  // namespace qfc::photonics
