#pragma once

/// \file tdc.hpp
/// Time-to-digital converter: quantizes click timestamps onto an integer
/// bin grid (the experiments use it both for coincidence histograms and
/// for time-bin post-selection).

#include <cstdint>

namespace qfc::detect {

class TimeToDigitalConverter {
 public:
  explicit TimeToDigitalConverter(double bin_width_s);

  double bin_width_s() const noexcept { return bin_width_; }

  /// Timestamp -> bin index (floor).
  std::int64_t bin_of(double time_s) const;

  /// Bin center time.
  double time_of(std::int64_t bin) const;

 private:
  double bin_width_;
};

}  // namespace qfc::detect
