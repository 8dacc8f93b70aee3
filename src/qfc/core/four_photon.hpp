#pragma once

/// \file four_photon.hpp
/// Sec. V end-to-end experiment: two Bell pairs on four comb lines form a
/// four-photon time-bin entangled state; four-photon quantum interference
/// (raw visibility ≈ 89%) and quantum state tomography (four-photon
/// fidelity ≈ 64%).

#include <vector>

#include "qfc/io/fields.hpp"

#include "qfc/core/timebin_experiment.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/timebin/multiphoton.hpp"
#include "qfc/tomo/tomography.hpp"

namespace qfc::core {

struct FourPhotonConfig {
  /// Channel pairs combined into the four-photon state (paper: two pairs
  /// symmetric to the pump).
  int pair_a = 1;
  int pair_b = 2;
  int fringe_points = 24;
  double fourfold_events_per_point = 400.0;
  /// Flat four-fold background fraction (double-pair emission of one
  /// channel + dark-count combinations); relative to the mean fringe level.
  double fourfold_accidental_fraction = 0.15;
  /// Tomography statistics and systematics: analyzer-phase RMS error and
  /// flat accidentals, calibrated so the reconstructed four-photon
  /// fidelity lands at the paper's 64% (see EXPERIMENTS.md E9).
  double tomo_shots_per_setting = 250.0;
  tomo::NoiseKnobs tomo_noise{0.38, 1.0};
  std::uint64_t seed = 351;  ///< Science vol. 351 (ref [8])

  QFC_FIELDS(FourPhotonConfig,
      QFC_FIELD(pair_a, io::between(1, 64), "first channel pair of the four-photon state"),
      QFC_FIELD(pair_b, io::between(1, 64), "second channel pair of the four-photon state"),
      QFC_FIELD(fringe_points, io::between(4, 100000), "points per four-fold fringe"),
      QFC_FIELD(fourfold_events_per_point, io::kPositive, "four-fold events per point"),
      QFC_FIELD(fourfold_accidental_fraction, io::kNonNegative, "four-fold background"),
      QFC_FIELD(tomo_shots_per_setting, io::kPositive, "tomography shots per setting"),
      QFC_FIELD(seed, io::kNonNegative, "experiment RNG seed"))

  /// The table's ranges, tomo_noise's table and pair_b != pair_a; throws
  /// std::invalid_argument("FourPhotonConfig.pair_b: must differ from
  /// pair_a"). The check against the timebin config's channel count stays
  /// in the constructor (it is a cross-config constraint).
  void validate() const;
};

struct FourPhotonResult {
  timebin::FourfoldFringe fringe;
  detect::SinusoidFit fringe_fit;       ///< fitted at the 2θ harmonic
  double analytic_visibility = 0;       ///< closed-form cross-check
  double bell_fidelity_a = 0;           ///< tomographic Bell fidelity, pair A
  double bell_fidelity_b = 0;
  double four_photon_fidelity = 0;      ///< tomographic vs |Φ>⊗|Φ>
  double four_photon_state_fidelity = 0;  ///< of the true (noise-model) state
  int tomo_iterations_pair = 0;          ///< pair A's solver steps
  int tomo_iterations_four = 0;
  bool converged_pair = false;           ///< both pair MLEs reached the default gap
  bool converged_four = false;
  /// The four-photon MLE's likelihood_gap, rounded up to two significant
  /// digits (the rest is round-off that varies with the SIMD setting).
  double likelihood_gap_four = 0;

  QFC_JSON(FourPhotonResult, fringe, fringe_fit, analytic_visibility, bell_fidelity_a,
           bell_fidelity_b, four_photon_fidelity, four_photon_state_fidelity, tomo_iterations_pair,
           tomo_iterations_four, converged_pair, converged_four, likelihood_gap_four)
};

class FourPhotonExperiment {
 public:
  FourPhotonExperiment(photonics::MicroringResonator device, TimebinConfig timebin_cfg,
                       FourPhotonConfig cfg, sfwm::SfwmEfficiency eff = {});

  /// Full Sec. V pipeline: fringe + two-qubit tomography per pair +
  /// four-qubit tomography.
  FourPhotonResult run();

  /// The four-photon density matrix of the noise model (ground truth).
  quantum::DensityMatrix true_state() const;

 private:
  TimebinExperiment timebin_;
  FourPhotonConfig cfg_;
};

}  // namespace qfc::core
