#pragma once

/// \file analysis_sweep.hpp
/// Internal core of the coincidence analyzers (streaming.cpp): the merged
/// idler view, the CAR window grid, and the per-signal-event counting
/// functions (merged-view and per-column variants). Not installed API; include only from qfc::detect translation
/// units.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "qfc/detect/event_engine.hpp"

namespace qfc::parallel {
class WorkerPool;
}

namespace qfc::detect::analysis_detail {

/// Largest chunk of signal events one analysis worker sweeps at a time.
constexpr std::size_t kAnalysisChunkEvents = 16384;

/// Pool for one analysis call or accumulator (event_engine.cpp). `num_threads` <= 0 uses
/// (and lazily builds) the cached process-wide pool at the current
/// set_analysis_threads request; a positive explicit count that matches the
/// cached size reuses it, any other explicit count gets a transient pool.
/// Callers hold the shared_ptr for the whole sweep (or, for streaming
/// accumulators, for their whole lifetime), so a concurrent
/// set_analysis_threads() swap cannot destroy a pool mid-run.
std::shared_ptr<parallel::WorkerPool> analysis_pool_for(int num_threads);

/// Time-ordered view over all channels of a table: one (time, channel)
/// sequence merged across the per-channel columns.
struct MergedView {
  std::vector<double> t;
  std::vector<std::uint32_t> ch;
};

/// Bottom-up pairwise merge of the per-channel columns (event_engine.cpp).
/// When `pool` is non-null and the table is large enough, the independent
/// pair-merges of each pass run over `parallel_for_chunks` — their output
/// ranges are disjoint and the pass layout depends only on the offsets, so
/// the result is bitwise identical at every pool size.
MergedView merge_channels(const EventTable& table,
                          parallel::WorkerPool* pool = nullptr);

/// Index of the first merged-view event with t >= first signal time - reach:
/// exactly where the monotone `lo` pointer of the full sweep would stand
/// when it reaches this shard's first event.
inline std::size_t sweep_start(const std::vector<double>& t, double first_ta,
                               double reach) {
  return static_cast<std::size_t>(
      std::lower_bound(t.begin(), t.end(), first_ta - reach) - t.begin());
}

/// CAR window grid: index 0 is the peak at Δt = 0; side window w = 1..K sits
/// at multiple m_w of the spacing, alternating +1, -1, +2, -2, ...
/// (the same offsets measure_car scans one pair at a time).
struct CarGrid {
  int K = 0;
  int mmax = 0;
  double half = 0;
  double spacing = 0;
  double reach = 0;          ///< conservative scan reach (one extra window)
  std::size_t stride = 0;    ///< K + 1 windows per (signal, idler) cell
  std::vector<int> window_of;
};

inline CarGrid make_car_grid(double window_s, double side_window_spacing_s,
                             int num_side_windows) {
  CarGrid g;
  g.K = num_side_windows;
  g.mmax = (g.K + 1) / 2;
  g.half = window_s / 2.0;
  g.spacing = side_window_spacing_s;
  g.reach = g.mmax * side_window_spacing_s + window_s;
  g.stride = static_cast<std::size_t>(g.K) + 1;
  g.window_of.assign(static_cast<std::size_t>(2 * g.mmax + 1), -1);
  g.window_of[static_cast<std::size_t>(g.mmax)] = 0;
  for (int w = 1; w <= g.K; ++w) {
    const int m = (w % 2 == 1) ? (w + 1) / 2 : -(w / 2);
    g.window_of[static_cast<std::size_t>(m + g.mmax)] = w;
  }
  return g;
}

/// CAR window (0 = peak, 1..K = side) that idler time `tb` falls in for
/// signal time `ta`, or -1 for none. The rounding to the nearest grid offset
/// only *selects* the window — the membership test repeats measure_car's
/// center-bounds arithmetic exactly.
inline int car_window_of(double ta, double tb, const CarGrid& g) {
  const auto m = static_cast<std::int64_t>(std::llround((ta - tb) / g.spacing));
  if (m < -g.mmax || m > g.mmax) return -1;
  const int w = g.window_of[static_cast<std::size_t>(m + g.mmax)];
  if (w < 0) return -1;
  const double center = ta - static_cast<double>(m) * g.spacing;
  if (tb < center - g.half || tb > center + g.half) return -1;
  return w;
}

/// One signal event of the full-matrix CAR sweep against a merged idler
/// sequence: advance the monotone `lo` pointer, then bin every idler event
/// within reach into its (idler channel, window) cell.
inline void car_count_event(double ta, const std::vector<double>& it,
                            const std::vector<std::uint32_t>& ich,
                            std::size_t& lo, const CarGrid& g,
                            std::uint64_t* row) {
  while (lo < it.size() && it[lo] < ta - g.reach) ++lo;
  for (std::size_t j = lo; j < it.size() && it[j] <= ta + g.reach; ++j) {
    const int w = car_window_of(ta, it[j], g);
    if (w >= 0) ++row[ich[j] * g.stride + static_cast<std::size_t>(w)];
  }
}

/// One signal event of the diagonal CAR sweep over its own idler channel
/// column [lo, ie): the same windows as car_count_event, one cell row.
inline void car_pair_count_event(double ta, const double* ie, const double*& lo,
                                 const CarGrid& g, std::uint64_t* row) {
  while (lo != ie && *lo < ta - g.reach) ++lo;
  for (const double* j = lo; j != ie && *j <= ta + g.reach; ++j) {
    const int w = car_window_of(ta, *j, g);
    if (w >= 0) ++row[static_cast<std::size_t>(w)];
  }
}

/// One signal event of the windowed-coincidence sweep: same center-bounds
/// arithmetic as count_coincidences.
inline void window_count_event(double ta, const std::vector<double>& it,
                               const std::vector<std::uint32_t>& ich,
                               std::size_t& lo, double half, double offset_s,
                               double reach, std::uint64_t* row) {
  const double center = ta - offset_s;
  while (lo < it.size() && it[lo] < ta - reach) ++lo;
  for (std::size_t j = lo; j < it.size() && it[j] <= ta + reach; ++j) {
    const double tb = it[j];
    if (tb >= center - half && tb <= center + half) ++row[ich[j]];
  }
}

/// One signal event of the diagonal Δt-histogram sweep over one idler
/// channel column [ib, ie).
inline void corr_count_event(double ta, const double* ie, const double*& lo,
                             double bin_width_s, double range_s,
                             std::size_t half_bins, std::size_t num_bins,
                             std::uint64_t* counts) {
  while (lo != ie && *lo < ta - range_s) ++lo;
  for (const double* j = lo; j != ie && *j <= ta + range_s; ++j) {
    const double dt = ta - *j;
    const auto bin = static_cast<std::int64_t>(std::llround(dt / bin_width_s)) +
                     static_cast<std::int64_t>(half_bins);
    if (bin >= 0 && bin < static_cast<std::int64_t>(num_bins))
      ++counts[static_cast<std::size_t>(bin)];
  }
}

/// Turn the per-window integer counts (g.stride per cell) into CarResults
/// — the same counting and error semantics as measure_car.
inline void finalize_car_cells(std::vector<CarResult>& cells,
                               const std::vector<std::uint64_t>& counts,
                               const CarGrid& g) {
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    CarResult& r = cells[cell];
    r.coincidences = static_cast<double>(counts[cell * g.stride]);
    double acc_total = 0;
    for (int w = 1; w <= g.K; ++w)
      acc_total +=
          static_cast<double>(counts[cell * g.stride + static_cast<std::size_t>(w)]);
    r.accidentals = acc_total / g.K;
    if (r.accidentals <= 0) r.accidentals = 1.0 / g.K;  // lower bound, as measure_car
    r.car = r.coincidences / r.accidentals;
    const double rel_c = r.coincidences > 0 ? 1.0 / std::sqrt(r.coincidences) : 1.0;
    const double rel_a = 1.0 / std::sqrt(std::max(1.0, acc_total));
    r.car_err = r.car * std::sqrt(rel_c * rel_c + rel_a * rel_a);
  }
}

}  // namespace qfc::detect::analysis_detail
