#include "qfc/qudit/measurement.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"

namespace qfc::qudit {

namespace {

/// Bessel J_n(x) for integer n >= 0 and the small arguments used here
/// (modulation indices of a few radians). std::cyl_bessel_j is C++17 but
/// absent from libc++, so fall back to the ascending series
/// J_n(x) = Σ_m (−1)^m / (m! (m+n)!) (x/2)^{2m+n} off libstdc++.
double bessel_jn(int n, double x) {
#if defined(__cpp_lib_math_special_functions) || defined(__GLIBCXX__)
  return std::cyl_bessel_j(static_cast<double>(n), x);
#else
  const double half = 0.5 * x;
  double term = 1.0;  // m = 0: (x/2)^n / n!
  for (int k = 1; k <= n; ++k) term *= half / static_cast<double>(k);
  double sum = term;
  for (int m = 1; m < 64; ++m) {
    term *= -half * half / (static_cast<double>(m) * static_cast<double>(m + n));
    sum += term;
    if (std::abs(term) < 1e-16 * std::abs(sum) + 1e-300) break;
  }
  return sum;
#endif
}

}  // namespace

FreqBinAnalyzer::FreqBinAnalyzer(std::size_t dimension, AnalyzerConfig cfg)
    : d_(dimension), cfg_(cfg) {
  if (d_ < 2 || d_ > 64)
    throw std::invalid_argument("FreqBinAnalyzer: need 2 <= d <= 64");
  if (cfg_.modulation_index < 0)
    throw std::invalid_argument("FreqBinAnalyzer: negative modulation index");
  if (cfg_.detection_bin >= static_cast<int>(d_))
    throw std::invalid_argument("FreqBinAnalyzer: detection bin out of range");
  if (cfg_.detection_bin < 0) cfg_.detection_bin = static_cast<int>(d_) / 2;
}

CVec FreqBinAnalyzer::fourier_vector(std::size_t outcome, double phase,
                                     bool conjugate) const {
  if (outcome >= d_) throw std::out_of_range("fourier_vector: outcome out of range");
  const double norm = 1.0 / std::sqrt(static_cast<double>(d_));
  const double sign = conjugate ? -1.0 : 1.0;
  CVec v(d_);
  for (std::size_t j = 0; j < d_; ++j) {
    const double theta = sign * 2.0 * photonics::pi * static_cast<double>(j) *
                         (static_cast<double>(outcome) + phase) /
                         static_cast<double>(d_);
    v[j] = norm * cplx(std::cos(theta), std::sin(theta));
  }
  return v;
}

double FreqBinAnalyzer::projection_efficiency(const CVec& target) const {
  if (target.size() != d_)
    throw std::invalid_argument("projection_efficiency: target size != dimension");
  CVec t = target;
  linalg::vnormalize(t);
  double s = 0;
  for (std::size_t k = 0; k < d_; ++k) {
    const int n = std::abs(static_cast<int>(k) - cfg_.detection_bin);
    s += std::norm(t[k]) *
         std::pow(bessel_jn(n, cfg_.modulation_index), 2);
  }
  return s;
}

}  // namespace qfc::qudit
