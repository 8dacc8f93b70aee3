#pragma once

/// \file hbt.hpp
/// Heralded Hanbury Brown–Twiss measurement: the idler heralds, the signal
/// passes a 50/50 beam splitter onto two detectors. The normalized
/// heralded autocorrelation
///   g²_h(0) = N_h N_h12 / (N_h1 N_h2)
/// is the operational proof of the paper's "pure heralded single photons"
/// (Sec. II): << 1 means single-photon emission, with multi-pair SFWM
/// events pushing it up as ~4μ.

#include <cstdint>

#include "qfc/io/fields.hpp"
#include "qfc/quantum/fock.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::core {

struct HbtParams {
  double mean_pairs_per_trial = 1e-3;  ///< μ of the SFWM source per time slot
  double herald_efficiency = 0.2;      ///< idler-arm detection probability
  double signal_efficiency = 0.2;      ///< signal-arm (before the 50/50 BS)
  double dark_probability = 1e-6;      ///< per-detector, per-trial
  std::uint64_t trials = 2'000'000;

  QFC_FIELDS(HbtParams,
      QFC_FIELD(mean_pairs_per_trial, io::kNonNegative, "mean SFWM pairs per time slot"),
      QFC_FIELD(herald_efficiency, io::kEfficiency, "idler-arm detection probability"),
      QFC_FIELD(signal_efficiency, io::kEfficiency, "signal-arm detection probability"),
      QFC_FIELD(dark_probability, io::kFraction, "dark-count probability per trial"),
      QFC_FIELD(trials, io::at_least(1), "time slots simulated"))

  void validate() const { io::check_fields(*this, "HbtParams"); }
};

struct HbtResult {
  std::uint64_t heralds = 0;        ///< N_h
  std::uint64_t coincidences_1 = 0; ///< N_h1 (herald + D1)
  std::uint64_t coincidences_2 = 0; ///< N_h2 (herald + D2)
  std::uint64_t triples = 0;        ///< N_h12
  double g2 = 0;                    ///< heralded g²(0)
  double g2_err = 0;                ///< Poisson error on the triples
};

/// Monte-Carlo HBT run with thermal (SFWM) photon-number statistics.
HbtResult run_hbt(const HbtParams& p, rng::Xoshiro256& g);

/// Continuous-time variant of HbtParams: the source is a CW click-stream
/// generated by the batched EventEngine instead of discrete trials.
struct HbtStreamParams {
  double pair_rate_hz = 100e3;       ///< on-chip generated pair rate
  double linewidth_hz = 110e6;       ///< photon Lorentzian FWHM
  double duration_s = 10.0;
  double herald_efficiency = 0.2;    ///< idler (herald) arm
  double signal_efficiency = 0.2;    ///< signal arm, before the 50/50 BS
  double dark_rate_hz = 100.0;       ///< per detector
  double coincidence_window_s = 8e-9;
  std::uint64_t seed = 8236;

  QFC_FIELDS(HbtStreamParams,
      QFC_FIELD(pair_rate_hz, io::kNonNegative, "on-chip generated pair rate [Hz]"),
      QFC_FIELD(linewidth_hz, io::kPositive, "photon Lorentzian FWHM [Hz]"),
      QFC_FIELD(duration_s, io::kPositive, "run duration [s]"),
      QFC_FIELD(herald_efficiency, io::kEfficiency, "idler (herald) arm detection probability"),
      QFC_FIELD(signal_efficiency, io::kEfficiency, "signal-arm detection probability"),
      QFC_FIELD(dark_rate_hz, io::kNonNegative, "per-detector dark rate [Hz]"),
      QFC_FIELD(coincidence_window_s, io::kPositive, "herald coincidence window [s]"),
      QFC_FIELD(seed, io::kNonNegative, "engine seed"))

  void validate() const { io::check_fields(*this, "HbtStreamParams"); }
};

/// Time-domain heralded HBT on engine-generated click streams: the idler
/// column heralds, the signal column is split 50/50 onto two detectors,
/// and g²_h(0) is formed from windowed herald/signal coincidences.
HbtResult run_hbt_time_domain(const HbtStreamParams& p);

/// Analytic expectation from the two-mode squeezed vacuum model, ignoring
/// darks (cross-check for the MC).
double analytic_heralded_g2(const HbtParams& p);

}  // namespace qfc::core
