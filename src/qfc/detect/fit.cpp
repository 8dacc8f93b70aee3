#include "qfc/detect/fit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qfc/linalg/solve.hpp"
#include "qfc/photonics/constants.hpp"

namespace qfc::detect {

ExponentialFit fit_two_sided_exponential(const std::vector<double>& t_s,
                                         const std::vector<double>& y) {
  if (t_s.size() != y.size())
    throw std::invalid_argument("fit_two_sided_exponential: size mismatch");

  // Weighted regression: log y = log A − |t|/τ with weights w_i = y_i
  // (variance of log of a Poisson count ≈ 1/count).
  double sw = 0, swx = 0, swy = 0, swxx = 0, swxy = 0;
  std::size_t usable = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] <= 0) continue;
    const double x = std::abs(t_s[i]);
    const double ly = std::log(y[i]);
    const double w = y[i];
    sw += w;
    swx += w * x;
    swy += w * ly;
    swxx += w * x * x;
    swxy += w * x * ly;
    ++usable;
  }
  if (usable < 3)
    throw std::invalid_argument("fit_two_sided_exponential: fewer than 3 positive points");

  const double denom = sw * swxx - swx * swx;
  if (std::abs(denom) < 1e-300)
    throw std::invalid_argument("fit_two_sided_exponential: degenerate abscissae");
  const double slope = (sw * swxy - swx * swy) / denom;
  const double intercept = (swy - slope * swx) / sw;
  if (slope >= 0)
    throw std::invalid_argument("fit_two_sided_exponential: data does not decay");

  ExponentialFit f;
  f.tau_s = -1.0 / slope;
  f.amplitude = std::exp(intercept);

  // Weighted R² on the log model.
  const double mean_ly = swy / sw;
  double ss_res = 0, ss_tot = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] <= 0) continue;
    const double x = std::abs(t_s[i]);
    const double ly = std::log(y[i]);
    const double pred = intercept + slope * x;
    ss_res += y[i] * (ly - pred) * (ly - pred);
    ss_tot += y[i] * (ly - mean_ly) * (ly - mean_ly);
  }
  f.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 0.0;
  return f;
}

double linewidth_from_decay_time(double tau_s) {
  if (tau_s <= 0) throw std::invalid_argument("linewidth_from_decay_time: tau <= 0");
  return 1.0 / (2.0 * qfc::photonics::pi * tau_s);
}

double deconvolve_jitter(double tau_measured_s, double jitter_sigma_s) {
  if (tau_measured_s <= 0) throw std::invalid_argument("deconvolve_jitter: tau <= 0");
  if (jitter_sigma_s < 0) throw std::invalid_argument("deconvolve_jitter: sigma < 0");
  // Two detectors each add jitter σ; Δt carries 2σ² of Gaussian variance.
  const double corrected2 = tau_measured_s * tau_measured_s - 2.0 * jitter_sigma_s * jitter_sigma_s;
  if (corrected2 <= 0) return tau_measured_s;
  return std::sqrt(corrected2);
}

SinusoidFit fit_sinusoid(const std::vector<double>& x_rad, const std::vector<double>& y) {
  if (x_rad.size() != y.size()) throw std::invalid_argument("fit_sinusoid: size mismatch");
  if (x_rad.size() < 4)
    throw std::invalid_argument("fit_sinusoid: need at least 4 points");

  using linalg::RMat;
  using linalg::RVec;
  RMat a(x_rad.size(), 3);
  for (std::size_t i = 0; i < x_rad.size(); ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = std::cos(x_rad[i]);
    a(i, 2) = std::sin(x_rad[i]);
  }
  const RVec coef = linalg::least_squares(a, y);

  SinusoidFit f;
  f.offset = coef[0];
  f.amplitude = std::hypot(coef[1], coef[2]);
  f.phase_rad = std::atan2(-coef[2], coef[1]);
  if (f.offset > 0) {
    f.visibility = std::clamp(f.amplitude / f.offset, 0.0, 1.0);
    // Poisson: var(y_i) ≈ y_i; rough propagation via mean count.
    double mean_y = 0;
    for (double v : y) mean_y += v;
    mean_y /= static_cast<double>(y.size());
    if (mean_y > 0 && f.offset > 0) {
      const double sigma_a = std::sqrt(2.0 * mean_y / static_cast<double>(y.size()));
      f.visibility_err = sigma_a / f.offset;
    }
  }
  return f;
}

}  // namespace qfc::detect
