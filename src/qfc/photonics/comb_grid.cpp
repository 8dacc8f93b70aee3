#include "qfc/photonics/comb_grid.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace qfc::photonics {

CombGrid::CombGrid(double pump_hz, double spacing_hz, int num_pairs)
    : pump_hz_(pump_hz), spacing_hz_(spacing_hz), num_pairs_(num_pairs) {
  if (pump_hz <= 0) throw std::invalid_argument("CombGrid: pump frequency <= 0");
  if (spacing_hz <= 0) throw std::invalid_argument("CombGrid: spacing <= 0");
  if (num_pairs < 1) throw std::invalid_argument("CombGrid: need at least one pair");
  if (static_cast<double>(num_pairs) * spacing_hz >= pump_hz)
    throw std::invalid_argument("CombGrid: grid extends to non-positive frequencies");
}

CombChannel CombGrid::channel(int offset) const {
  if (offset == 0)
    throw std::invalid_argument("CombGrid::channel: offset 0 is the pump, not a channel");
  if (std::abs(offset) > num_pairs_)
    throw std::out_of_range("CombGrid::channel: offset outside tracked grid");
  const double f = pump_hz_ + static_cast<double>(offset) * spacing_hz_;
  return CombChannel{offset, f, classify_band(f)};
}

ChannelPair CombGrid::pair(int k) const {
  if (k < 1 || k > num_pairs_) throw std::out_of_range("CombGrid::pair: bad index");
  return ChannelPair{k, channel(k), channel(-k)};
}

std::vector<ChannelPair> CombGrid::pairs() const {
  std::vector<ChannelPair> out;
  out.reserve(static_cast<std::size_t>(num_pairs_));
  for (int k = 1; k <= num_pairs_; ++k) out.push_back(pair(k));
  return out;
}

int CombGrid::itu_channel_number(double frequency_hz) {
  return static_cast<int>(std::lround((frequency_hz - 190.0e12) / 100e9));
}

std::string CombGrid::describe(const CombChannel& ch) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "ITU %+d (offset %+d, %.2f THz, %s band)",
                itu_channel_number(ch.frequency_hz), ch.offset, ch.frequency_hz / 1e12,
                band_name(ch.band));
  return buf;
}

}  // namespace qfc::photonics
