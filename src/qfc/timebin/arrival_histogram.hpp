#pragma once

/// \file arrival_histogram.hpp
/// Monte-Carlo simulation of the raw arrival-time-difference histogram of
/// a time-bin pair behind the two analyzer interferometers. Each photon
/// takes the short or long analyzer path; coincidences land on five Δt
/// peaks at {−2ΔT, −ΔT, 0, +ΔT, +2ΔT}... for the pair state |SS>+|LL>
/// the outer combinations are path-forbidden, yielding the paper's
/// three-peak signature with 1:2:1 weights and interference confined to
/// the central peak.

#include <array>
#include <cstdint>

#include "qfc/detect/coincidence.hpp"
#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"
#include "qfc/timebin/interferometer.hpp"

#include "qfc/io/fields.hpp"

namespace qfc::timebin {

struct ArrivalHistogram {
  /// Counts at Δt/ΔT = −2, −1, 0, +1, +2.
  std::array<std::uint64_t, 5> counts{};

  std::uint64_t total() const;
  /// Ratio of the central peak to the mean of the two inner side peaks.
  /// The side peaks never interfere; the central one does:
  /// 2 at quadrature (the classic 1:2:1 signature), 3 at a fringe
  /// maximum, 1 at a fringe minimum for the ideal Bell pair.
  double central_to_side_ratio() const;
};

/// Simulate `num_pairs` post-selected pair detections of the two-qubit
/// time-bin state ρ through analyzers with phases (α, β) and equal delay.
/// Sampling follows the exact joint amplitudes of the five path
/// combinations.
ArrivalHistogram simulate_arrival_histogram(const quantum::DensityMatrix& rho,
                                            double alpha_rad, double beta_rad,
                                            std::uint64_t num_pairs,
                                            rng::Xoshiro256& g);

/// Early/late coincidence peaks folded out of a raw Δt histogram produced
/// by the pulsed click-level engine (detect::correlate_all on a
/// double-pulse EmissionMode::Pulsed channel). For a pulse-locked pair
/// source the central peak (Δt ≈ 0) holds the true same-bin coincidences
/// (early/early + late/late) while the ±ΔT side peaks hold only
/// multi-pair cross-bin accidentals — the click-level counterpart of the
/// amplitude-level five-peak histogram above.
struct TimebinPeaks {
  std::uint64_t early_late = 0;  ///< Δt ≈ −ΔT (signal early, idler late)
  std::uint64_t same_bin = 0;    ///< Δt ≈ 0 (early/early + late/late)
  std::uint64_t late_early = 0;  ///< Δt ≈ +ΔT (signal late, idler early)

  /// Central peak over the mean of the two side peaks (0 if no side
  /// counts), same convention as ArrivalHistogram::central_to_side_ratio.
  double central_to_side_ratio() const;

  QFC_JSON(TimebinPeaks, early_late, same_bin, late_early, central_to_side_ratio)
};

/// Sum the histogram bins within ±half_window_s of Δt = −ΔT, 0, +ΔT.
/// half_window_s must be positive and at most ΔT/2 so the windows are
/// disjoint; the histogram range must reach ±(ΔT + half_window).
TimebinPeaks fold_timebin_peaks(const detect::CoincidenceHistogram& hist,
                                double bin_separation_s, double half_window_s);

}  // namespace qfc::timebin
