#include "qfc/core/channel_model.hpp"

#include <cmath>
#include <stdexcept>


namespace qfc::core {

ChannelChain ChannelModel::chain(int k, int arm) const {
  if (k < 1) throw std::invalid_argument("ChannelModel::chain: k must be >= 1");
  if (arm != 0 && arm != 1) throw std::invalid_argument("ChannelModel::chain: arm is 0 or 1");

  // Deterministic pseudo-ripple: each (channel, arm) sits at a different
  // point of the demux filter's insertion-loss ripple.
  const double x = static_cast<double>(k) * 1.7 + static_cast<double>(arm) * 0.9;
  const double ripple = std::sin(x) * 0.5;  // in [-0.5, 0.5]

  ChannelChain c;
  c.transmission = base_transmission * (1.0 + transmission_ripple * ripple);
  c.detector.efficiency = detector_efficiency;
  c.detector.dark_rate_hz = base_dark_rate_hz * (1.0 + dark_rate_ripple * std::cos(x));
  c.detector.jitter_sigma_s = jitter_sigma_s;
  c.detector.dead_time_s = dead_time_s;
  return c;
}

}  // namespace qfc::core
