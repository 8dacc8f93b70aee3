#include "qfc/detect/allan.hpp"

#include <cmath>
#include <stdexcept>

namespace qfc::detect {

double allan_deviation(const std::vector<double>& samples, std::size_t m) {
  const std::size_t n = samples.size();
  if (m == 0) throw std::invalid_argument("allan_deviation: m == 0");
  if (n < 2 * m + 1)
    throw std::invalid_argument("allan_deviation: series too short for this m");

  // Prefix sums for O(1) block averages.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + samples[i];
  const auto block_mean = [&](std::size_t start) {
    return (prefix[start + m] - prefix[start]) / static_cast<double>(m);
  };

  double acc = 0;
  const std::size_t terms = n - 2 * m + 1;
  for (std::size_t i = 0; i < terms; ++i) {
    const double d = block_mean(i + m) - block_mean(i);
    acc += d * d;
  }
  return std::sqrt(acc / (2.0 * static_cast<double>(terms)));
}

std::vector<AllanPoint> allan_curve(const std::vector<double>& samples,
                                    double sample_interval_s) {
  if (sample_interval_s <= 0) throw std::invalid_argument("allan_curve: dt <= 0");
  std::vector<AllanPoint> out;
  for (std::size_t m = 1; 2 * m + 1 <= samples.size() && m <= samples.size() / 3;
       m *= 2) {
    AllanPoint p;
    p.tau_s = static_cast<double>(m) * sample_interval_s;
    p.sigma = allan_deviation(samples, m);
    p.pairs = samples.size() - 2 * m + 1;
    out.push_back(p);
  }
  return out;
}

}  // namespace qfc::detect
