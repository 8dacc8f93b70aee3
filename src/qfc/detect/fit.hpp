#pragma once

/// \file fit.hpp
/// Estimators used to turn histograms and fringe scans into the numbers
/// the paper reports: exponential-decay fits (photon coherence time /
/// linewidth) and sinusoid fits (quantum-interference visibility).

#include <vector>

#include "qfc/io/fields.hpp"

namespace qfc::detect {

struct ExponentialFit {
  double amplitude = 0;   ///< A in  y = A exp(−|t|/tau)
  double tau_s = 0;       ///< decay time
  double r_squared = 0;   ///< goodness of fit on the log-linear model
};

/// Fit y_i = A exp(−|t_i|/τ) by weighted linear regression of log(y) on
/// |t| (weights ∝ y_i, the correct weighting for Poisson counts). Points
/// with y <= 0 are skipped; throws if fewer than 3 usable points.
ExponentialFit fit_two_sided_exponential(const std::vector<double>& t_s,
                                         const std::vector<double>& y);

/// Lorentzian linewidth (FWHM, Hz) of a photon whose arrival-time-
/// difference histogram decays as exp(−2π δν |Δt|):  δν = 1/(2π τ).
double linewidth_from_decay_time(double tau_s);

/// Remove Gaussian jitter broadening from a measured decay time using the
/// variance-matching approximation: τ_true ≈ sqrt(τ_meas² − 2σ_j²)
/// (an exponential ⊛ Gaussian has variance 2τ² + σ²; we match second
/// moments of the two-sided distribution). Returns τ_meas when the
/// correction would be imaginary.
double deconvolve_jitter(double tau_measured_s, double jitter_sigma_s);

struct SinusoidFit {
  double offset = 0;       ///< c0 in y = c0 + a cos(x) + b sin(x)
  double amplitude = 0;    ///< sqrt(a² + b²)
  double phase_rad = 0;    ///< atan2(−b, a): y = c0 + A cos(x + φ)
  double visibility = 0;   ///< A / c0, clipped to [0, 1]
  double visibility_err = 0;  ///< 1σ from Poisson residual propagation

  QFC_JSON(SinusoidFit, offset, amplitude, phase_rad, visibility, visibility_err)
};

/// Least-squares fit of a fringe y(x) = c0 + a cos x + b sin x; x in rad.
SinusoidFit fit_sinusoid(const std::vector<double>& x_rad, const std::vector<double>& y);

/// Visibility from explicit extrema: (max−min)/(max+min).
double visibility_from_extrema(double max_counts, double min_counts);

}  // namespace qfc::detect
