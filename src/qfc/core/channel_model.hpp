#pragma once

/// \file channel_model.hpp
/// Per-channel collection chain: demultiplexing filter, fiber coupling and
/// detector. The smooth channel-to-channel transmission ripple of the
/// demux filters is what spreads the measured CAR / pair rates across the
/// ranges the paper reports (CAR 12.8-32.4, rates 14-29 Hz).

#include "qfc/detect/detector.hpp"

namespace qfc::core {

struct ChannelChain {
  double transmission = 0.85;        ///< filter + coupling transmission
  detect::DetectorParams detector;   ///< detector at the end of the chain
};

/// Deterministic collection-chain model: transmission ripple and
/// background variation across comb channels (k = 1-based pair index,
/// arm = 0 signal / 1 idler).
struct ChannelModel {
  double base_transmission = 0.87;
  double transmission_ripple = 0.22;   ///< peak-to-peak fractional ripple
  double base_dark_rate_hz = 12.0e3;   ///< gated InGaAs + in-band background
  double dark_rate_ripple = 0.15;      ///< fractional variation
  double detector_efficiency = 0.20;
  double jitter_sigma_s = 120e-12;
  double dead_time_s = 10e-6;

  ChannelChain chain(int k, int arm) const;
};

}  // namespace qfc::core
