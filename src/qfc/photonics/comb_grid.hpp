#pragma once

/// \file comb_grid.hpp
/// The frequency-channel bookkeeping of the quantum comb: symmetric
/// signal/idler channel pairs around the pump on a fixed grid (the ring
/// FSR ≈ ITU 200 GHz spacing), with telecom-band classification and ITU
/// channel numbering.

#include <string>
#include <vector>

#include "qfc/photonics/constants.hpp"

namespace qfc::photonics {

struct CombChannel {
  int offset;           ///< signed multiple of the spacing from the pump (≠ 0)
  double frequency_hz;  ///< absolute frequency
  TelecomBand band;     ///< telecom band this channel falls into
};

/// A signal/idler pair symmetric about the pump: signal at +k, idler at −k.
struct ChannelPair {
  int k;  ///< pair index, k >= 1
  CombChannel signal;
  CombChannel idler;
};

class CombGrid {
 public:
  /// \param pump_hz     pump (comb center) frequency
  /// \param spacing_hz  channel spacing (one ring FSR)
  /// \param num_pairs   number of symmetric pairs tracked on each side
  CombGrid(double pump_hz, double spacing_hz, int num_pairs);

  double pump_hz() const noexcept { return pump_hz_; }
  double spacing_hz() const noexcept { return spacing_hz_; }
  int num_pairs() const noexcept { return num_pairs_; }

  /// Channel at signed offset k (k > 0 signal side, k < 0 idler side).
  CombChannel channel(int offset) const;

  /// Symmetric pair k (1-based).
  ChannelPair pair(int k) const;

  std::vector<ChannelPair> pairs() const;

  /// Nearest 100-GHz ITU-T G.694.1 channel number n for a frequency:
  /// ν = 190.0 THz + n × 0.1 THz  (C-band convention, n can be negative).
  static int itu_channel_number(double frequency_hz);

  /// Human-readable label like "C42 (+3, 193.70 THz, C band)".
  static std::string describe(const CombChannel& ch);

 private:
  double pump_hz_;
  double spacing_hz_;
  int num_pairs_;
};

}  // namespace qfc::photonics
