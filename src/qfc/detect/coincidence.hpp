#pragma once

/// \file coincidence.hpp
/// Start-stop coincidence analysis between two click streams: the Δt
/// histogram, windowed coincidence counting, and the CAR estimator used
/// throughout the paper's Sec. II-III.

#include <cstdint>
#include <vector>

#include "qfc/io/fields.hpp"

namespace qfc::detect {

/// Histogram of signal-minus-idler arrival-time differences.
struct CoincidenceHistogram {
  double bin_width_s = 0;
  double range_s = 0;                 ///< histogram covers [-range, +range]
  std::vector<std::uint64_t> counts;  ///< 2*half_bins+1 bins, center = Δt 0

  std::size_t center_bin() const { return counts.size() / 2; }
  double bin_time(std::size_t i) const {
    return (static_cast<double>(i) - static_cast<double>(center_bin())) * bin_width_s;
  }

  QFC_JSON(CoincidenceHistogram, bin_width_s, range_s, counts)
};

/// Build the Δt histogram from two sorted click streams (seconds).
/// Every pair with |t_a - t_b| <= range contributes one count.
CoincidenceHistogram correlate(const std::vector<double>& clicks_a,
                               const std::vector<double>& clicks_b,
                               double bin_width_s, double range_s);

/// Count coincidences with |t_a - t_b - offset| <= window/2.
std::uint64_t count_coincidences(const std::vector<double>& clicks_a,
                                 const std::vector<double>& clicks_b,
                                 double window_s, double offset_s = 0.0);

/// Coincidence-to-accidental ratio measurement.
struct CarResult {
  double coincidences = 0;  ///< counts in the peak window
  double accidentals = 0;   ///< mean counts in equally wide offset windows
  double car = 0;           ///< coincidences / accidentals
  double car_err = 0;       ///< Poisson 1σ propagation

  QFC_JSON(CarResult, coincidences, accidentals, car, car_err)
};

/// CAR from two click streams: peak window around Δt = 0, accidentals
/// estimated from `num_side_windows` windows at offsets far from the peak
/// (spaced by `side_window_spacing_s`, alternating sides).
CarResult measure_car(const std::vector<double>& clicks_a,
                      const std::vector<double>& clicks_b, double window_s,
                      double side_window_spacing_s, int num_side_windows = 10);

}  // namespace qfc::detect
