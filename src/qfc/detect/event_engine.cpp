#include "qfc/detect/event_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "qfc/detect/analysis_sweep.hpp"
#include "qfc/detect/engine_plan.hpp"
#include "qfc/detect/streaming.hpp"
#include "qfc/obs/obs.hpp"

namespace qfc::detect {

// ---------------------------------------------------------------- EventTable

std::size_t EventTable::channel_size(std::size_t c) const {
  if (c + 1 >= offsets.size()) throw std::out_of_range("EventTable: bad channel");
  return offsets[c + 1] - offsets[c];
}

const double* EventTable::channel_begin(std::size_t c) const {
  if (c + 1 >= offsets.size()) throw std::out_of_range("EventTable: bad channel");
  return time_s.data() + offsets[c];
}

const double* EventTable::channel_end(std::size_t c) const {
  if (c + 1 >= offsets.size()) throw std::out_of_range("EventTable: bad channel");
  return time_s.data() + offsets[c + 1];
}

std::vector<double> EventTable::channel_clicks(std::size_t c) const {
  return std::vector<double>(channel_begin(c), channel_end(c));
}

EventTable EventTable::from_columns(std::vector<std::vector<double>> per_channel) {
  EventTable t;
  std::size_t total = 0;
  for (const auto& col : per_channel) {
    if (!std::is_sorted(col.begin(), col.end()))
      throw std::invalid_argument("EventTable::from_columns: unsorted channel column");
    total += col.size();
  }
  t.time_s.reserve(total);
  t.channel.reserve(total);
  t.offsets.reserve(per_channel.size() + 1);
  t.offsets.push_back(0);
  for (std::size_t c = 0; c < per_channel.size(); ++c) {
    t.time_s.insert(t.time_s.end(), per_channel[c].begin(), per_channel[c].end());
    t.channel.insert(t.channel.end(), per_channel[c].size(),
                     static_cast<std::uint32_t>(c));
    t.offsets.push_back(t.time_s.size());
  }
  return t;
}

// --------------------------------------------------------------- EventEngine

EventEngine::EventEngine(EngineConfig cfg) : cfg_(cfg) { detail::check_engine_config(cfg_); }

EngineResult EventEngine::run(const std::vector<ChannelPairSpec>& channels) const {
  QFC_OBS_SPAN("engine.run", {{"channels", channels.size()}});
  // A whole run is one stream window: the same samplers, detector pass and
  // per-channel workers as any windowed run, drained in a single next().
  StreamConfig one_window;
  one_window.window_s = cfg_.duration_s;
  EventStreamer streamer(cfg_, one_window, channels);
  StreamWindow w;
  streamer.next(w);
  return std::move(w.events);
}

// ------------------------------------------------------- analysis support

namespace analysis_detail {

MergedView merge_channels(const EventTable& table) {
  QFC_OBS_SPAN("engine.analysis.merge", {{"events", table.size()}});
  MergedView m;
  const std::size_t n = table.size();
  m.t.reserve(n);
  m.ch.reserve(n);
  const std::size_t num_ch = table.num_channels();
  if (num_ch == 1) {
    m.t = table.time_s;
    m.ch = table.channel;
    return m;
  }

  // Bottom-up pairwise merge of the already-sorted channel columns:
  // ceil(log2 C) sequential passes over the data, far more cache-friendly
  // than a per-event heap. Ties take the left (lower-id) channel first.
  m.t = table.time_s;
  m.ch = table.channel;
  std::vector<std::size_t> bounds = table.offsets;
  std::vector<double> tb(n);
  std::vector<std::uint32_t> cb(n);
  while (bounds.size() > 2) {
    const std::size_t npairs = (bounds.size() - 1) / 2;
    for (std::size_t pair = 0; pair < npairs; ++pair) {
      const std::size_t s = 2 * pair;
      std::size_t i = bounds[s], j = bounds[s + 1], o = bounds[s];
      const std::size_t iend = bounds[s + 1], jend = bounds[s + 2];
      while (i < iend && j < jend) {
        // Branchless select: the interleave of independent Poisson streams
        // is a coin flip per element, the worst case for a branchy merge.
        const bool take_j = m.t[j] < m.t[i];
        tb[o] = take_j ? m.t[j] : m.t[i];
        cb[o] = take_j ? m.ch[j] : m.ch[i];
        j += take_j;
        i += 1 - static_cast<std::size_t>(take_j);
        ++o;
      }
      for (; i < iend; ++i, ++o) {
        tb[o] = m.t[i];
        cb[o] = m.ch[i];
      }
      for (; j < jend; ++j, ++o) {
        tb[o] = m.t[j];
        cb[o] = m.ch[j];
      }
    }

    std::vector<std::size_t> next_bounds;
    next_bounds.reserve(bounds.size() / 2 + 2);
    next_bounds.push_back(0);
    for (std::size_t s = 0; s + 2 < bounds.size(); s += 2)
      next_bounds.push_back(bounds[s + 2]);
    const std::size_t s_odd = 2 * npairs;
    if (s_odd + 1 < bounds.size()) {  // odd segment out: copy through
      std::copy(m.t.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd]),
                m.t.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd + 1]),
                tb.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd]));
      std::copy(m.ch.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd]),
                m.ch.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd + 1]),
                cb.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd]));
      next_bounds.push_back(bounds[s_odd + 1]);
    }
    m.t.swap(tb);
    m.ch.swap(cb);
    bounds.swap(next_bounds);
  }
  return m;
}

}  // namespace analysis_detail

// The analysis sweeps are serial, so the thread knob has nothing to set.
void set_analysis_threads(unsigned) {}
unsigned analysis_threads() { return 1; }
unsigned analysis_thread_request() { return 1; }

const CarResult& CarMatrix::at(std::size_t s, std::size_t i) const {
  if (s >= num_signal || i >= num_idler)
    throw std::out_of_range("CarMatrix::at: bad cell");
  return cells[s * num_idler + i];
}

double mean_pair_rate_hz(const ChannelPairSpec& spec) {
  switch (spec.emission) {
    case EmissionMode::Cw:
      return spec.pair_rate_hz;
    case EmissionMode::Pulsed:
      return spec.pulsed.mean_pairs_per_pulse * spec.pulsed.repetition_rate_hz;
    case EmissionMode::PiecewiseRates: {
      double total = 0, rate_time = 0;
      for (const RateSegment& seg : spec.segments) {
        total += seg.duration_s;
        rate_time += seg.pair_rate_hz * seg.duration_s;
      }
      return total > 0 ? rate_time / total : 0.0;
    }
  }
  return 0.0;
}

void apply_adjacent_crosstalk(std::vector<ChannelPairSpec>& specs,
                              const std::vector<int>& comb_bin,
                              const std::vector<double>& leakage_fraction) {
  if (comb_bin.size() != specs.size() || leakage_fraction.size() != specs.size())
    throw std::invalid_argument(
        "apply_adjacent_crosstalk: comb_bin and leakage_fraction must have one "
        "entry per spec");
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (leakage_fraction[i] < 0 || leakage_fraction[i] > 1)
      throw std::invalid_argument("apply_adjacent_crosstalk: channel " +
                                  std::to_string(i) +
                                  ": leakage fraction outside [0, 1]");

  // Neighbor flux is read from a pre-crosstalk copy of the specs, so
  // the result is independent of channel order and leakage never cascades
  // through a chain of bins.
  std::vector<double> flux(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    flux[i] = mean_pair_rate_hz(specs[i]);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (leakage_fraction[i] <= 0) continue;  // exact no-op: bitwise parity
    double neighbor_flux = 0;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (j == i) continue;
      const int d = comb_bin[j] - comb_bin[i];
      if (d == 1 || d == -1) neighbor_flux += flux[j];
    }
    if (neighbor_flux <= 0) continue;
    const double leaked = leakage_fraction[i] * neighbor_flux;
    specs[i].background_rate_signal_hz += leaked * specs[i].transmission_signal;
    specs[i].background_rate_idler_hz += leaked * specs[i].transmission_idler;
  }
}

}  // namespace qfc::detect
