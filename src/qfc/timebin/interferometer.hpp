#pragma once

/// \file interferometer.hpp
/// Unbalanced, phase-stabilized Michelson interferometer — used once to
/// carve the pump double pulse (Sec. IV) and once per photon as the
/// time-bin qubit analyzer. The path imbalance equals the time-bin
/// separation, so the short-path late bin and long-path early bin overlap
/// in the middle time slot where quantum interference happens.

#include <complex>

#include "qfc/linalg/matrix.hpp"

namespace qfc::timebin {

class UnbalancedMichelson {
 public:
  /// \param delay_s    path-length imbalance as a time delay (= bin spacing)
  /// \param phase_rad  relative phase between the two arms
  /// \param arm_transmission  amplitude transmission of each pass (loss)
  UnbalancedMichelson(double delay_s, double phase_rad, double arm_transmission = 1.0);

  double delay_s() const noexcept { return delay_; }
  double phase_rad() const noexcept { return phase_; }

  /// Amplitudes (a_short, a_long) a single photon acquires for taking the
  /// short/long path toward the output port: each 1/2 in a Michelson
  /// (two beam-splitter passes), the long arm carrying e^{iφ}.
  std::complex<double> short_path_amplitude() const;
  std::complex<double> long_path_amplitude() const;

  /// Time-bin qubit analyzer projector (middle time slot post-selection):
  /// |a><a| with |a> = (|0> + e^{iφ}|1>)/√2 — measuring in the X-Y plane
  /// at angle φ. The overall post-selection success factor is
  /// `postselection_probability()`.
  linalg::CMat analyzer_projector() const;

  /// Probability that a time-bin photon ends up in the interfering middle
  /// slot: |a_short|² + |a_long|² = 1/4 + 1/4 (for lossless arms).
  double postselection_probability() const;

 private:
  double delay_;
  double phase_;
  double arm_amp_;
};

/// Fringe-visibility penalty from a path-imbalance mismatch δ between the
/// pump interferometer and an analyzer: the interfering wavepackets
/// overlap with |g⁽¹⁾(δ)| = exp(−|δ|/τ_c) for Lorentzian photons of
/// coherence time τ_c = 1/(π δν). Perfectly matched interferometers
/// (the paper's "path length difference matched") give 1.
double mismatch_visibility_penalty(double delay_mismatch_s,
                                   double photon_coherence_time_s);

}  // namespace qfc::timebin
