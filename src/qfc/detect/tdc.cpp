#include "qfc/detect/tdc.hpp"

#include <cmath>
#include <stdexcept>

namespace qfc::detect {

TimeToDigitalConverter::TimeToDigitalConverter(double bin_width_s)
    : bin_width_(bin_width_s) {
  if (bin_width_s <= 0)
    throw std::invalid_argument("TimeToDigitalConverter: bin width <= 0");
}

std::int64_t TimeToDigitalConverter::bin_of(double time_s) const {
  return static_cast<std::int64_t>(std::floor(time_s / bin_width_));
}

double TimeToDigitalConverter::time_of(std::int64_t bin) const {
  return (static_cast<double>(bin) + 0.5) * bin_width_;
}

}  // namespace qfc::detect
