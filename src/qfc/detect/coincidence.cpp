#include "qfc/detect/coincidence.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qfc::detect {

CoincidenceHistogram correlate(const std::vector<double>& clicks_a,
                               const std::vector<double>& clicks_b,
                               double bin_width_s, double range_s) {
  if (bin_width_s <= 0 || range_s <= 0)
    throw std::invalid_argument("correlate: non-positive bin width or range");
  if (!std::is_sorted(clicks_a.begin(), clicks_a.end()) ||
      !std::is_sorted(clicks_b.begin(), clicks_b.end()))
    throw std::invalid_argument("correlate: click streams must be sorted");

  const auto half_bins = static_cast<std::size_t>(std::ceil(range_s / bin_width_s));
  CoincidenceHistogram h;
  h.bin_width_s = bin_width_s;
  h.range_s = range_s;
  h.counts.assign(2 * half_bins + 1, 0);

  // Two-pointer sweep: for each a-click, walk b-clicks within ±range.
  std::size_t lo = 0;
  for (const double ta : clicks_a) {
    while (lo < clicks_b.size() && clicks_b[lo] < ta - range_s) ++lo;
    for (std::size_t j = lo; j < clicks_b.size() && clicks_b[j] <= ta + range_s; ++j) {
      const double dt = ta - clicks_b[j];
      const auto bin = static_cast<std::int64_t>(std::llround(dt / bin_width_s)) +
                       static_cast<std::int64_t>(half_bins);
      if (bin >= 0 && bin < static_cast<std::int64_t>(h.counts.size()))
        ++h.counts[static_cast<std::size_t>(bin)];
    }
  }
  return h;
}

std::uint64_t count_coincidences(const std::vector<double>& clicks_a,
                                 const std::vector<double>& clicks_b, double window_s,
                                 double offset_s) {
  if (window_s <= 0) throw std::invalid_argument("count_coincidences: window <= 0");
  if (!std::is_sorted(clicks_a.begin(), clicks_a.end()) ||
      !std::is_sorted(clicks_b.begin(), clicks_b.end()))
    throw std::invalid_argument("count_coincidences: click streams must be sorted");

  const double half = window_s / 2.0;
  std::uint64_t n = 0;
  std::size_t lo = 0;
  for (const double ta : clicks_a) {
    const double center = ta - offset_s;
    while (lo < clicks_b.size() && clicks_b[lo] < center - half) ++lo;
    for (std::size_t j = lo; j < clicks_b.size() && clicks_b[j] <= center + half; ++j) ++n;
  }
  return n;
}

CarResult measure_car(const std::vector<double>& clicks_a,
                      const std::vector<double>& clicks_b, double window_s,
                      double side_window_spacing_s, int num_side_windows) {
  if (num_side_windows < 1)
    throw std::invalid_argument("measure_car: need at least one side window");
  if (side_window_spacing_s <= window_s)
    throw std::invalid_argument("measure_car: side windows overlap the peak");

  CarResult r;
  r.coincidences = static_cast<double>(count_coincidences(clicks_a, clicks_b, window_s));

  double acc_total = 0;
  for (int i = 1; i <= num_side_windows; ++i) {
    const double offset =
        ((i % 2 == 0) ? -1.0 : 1.0) * side_window_spacing_s * ((i + 1) / 2);
    acc_total +=
        static_cast<double>(count_coincidences(clicks_a, clicks_b, window_s, offset));
  }
  r.accidentals = acc_total / num_side_windows;

  if (r.accidentals <= 0) {
    // No accidental observed: report a lower bound using 1 count.
    r.accidentals = 1.0 / num_side_windows;
  }
  r.car = r.coincidences / r.accidentals;
  // Poisson propagation: relative errors add in quadrature.
  const double rel_c = r.coincidences > 0 ? 1.0 / std::sqrt(r.coincidences) : 1.0;
  const double rel_a = 1.0 / std::sqrt(std::max(1.0, acc_total));
  r.car_err = r.car * std::sqrt(rel_c * rel_c + rel_a * rel_a);
  return r;
}

}  // namespace qfc::detect
