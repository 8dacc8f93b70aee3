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

/// Analytic expectation from the two-mode squeezed vacuum model, ignoring
/// darks (cross-check for the MC).
double analytic_heralded_g2(const HbtParams& p);

}  // namespace qfc::core
