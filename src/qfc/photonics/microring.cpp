#include "qfc/photonics/microring.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/linalg/error.hpp"
#include "qfc/photonics/constants.hpp"

namespace qfc::photonics {

using cplx = std::complex<double>;

MicroringResonator::MicroringResonator(Waveguide waveguide, double radius_m, double t1,
                                       double t2, double loss_db_per_m)
    : waveguide_(waveguide),
      radius_(radius_m),
      circumference_(2.0 * pi * radius_m),
      t1_(t1),
      t2_(t2),
      loss_db_per_m_(loss_db_per_m) {
  if (radius_m <= 0) throw std::invalid_argument("MicroringResonator: radius <= 0");
  if (t1 <= 0 || t1 >= 1 || t2 <= 0 || t2 >= 1)
    throw std::invalid_argument("MicroringResonator: self-coupling must be in (0,1)");
  if (loss_db_per_m < 0)
    throw std::invalid_argument("MicroringResonator: negative loss");
}

double MicroringResonator::round_trip_amplitude() const {
  return std::pow(10.0, -loss_db_per_m_ * circumference_ / 20.0);
}

double MicroringResonator::fsr_hz(double frequency_hz, Polarization pol) const {
  return speed_of_light_m_per_s /
         (waveguide_.group_index(frequency_hz, pol) * circumference_);
}

double MicroringResonator::resonance_frequency_hz(int mode_number, Polarization pol) const {
  if (mode_number <= 0)
    throw std::invalid_argument("MicroringResonator: mode number must be positive");
  // Fixed point of ν = m c / (n_eff(ν) L); dispersion is weak so a few
  // iterations reach sub-Hz accuracy.
  double nu = static_cast<double>(mode_number) * speed_of_light_m_per_s /
              (1.7 * circumference_);
  for (int it = 0; it < 32; ++it) {
    const double next = static_cast<double>(mode_number) * speed_of_light_m_per_s /
                        (waveguide_.effective_index(nu, pol) * circumference_);
    if (std::abs(next - nu) < 1e-3) return next;
    nu = next;
  }
  return nu;
}

int MicroringResonator::mode_number_near(double frequency_hz, Polarization pol) const {
  if (frequency_hz <= 0) throw std::invalid_argument("mode_number_near: frequency <= 0");
  return static_cast<int>(std::lround(
      frequency_hz * waveguide_.effective_index(frequency_hz, pol) * circumference_ /
      speed_of_light_m_per_s));
}

double MicroringResonator::nearest_resonance_hz(double frequency_hz, Polarization pol) const {
  const int m = mode_number_near(frequency_hz, pol);
  double best = resonance_frequency_hz(m, pol);
  // The rounding above can be off by one near mode boundaries; check both
  // neighbours.
  for (int dm : {-1, 1}) {
    if (m + dm <= 0) continue;
    const double cand = resonance_frequency_hz(m + dm, pol);
    if (std::abs(cand - frequency_hz) < std::abs(best - frequency_hz)) best = cand;
  }
  return best;
}

double MicroringResonator::finesse() const {
  const double rho = t1_ * t2_ * round_trip_amplitude();
  return pi * std::sqrt(rho) / (1.0 - rho);
}

double MicroringResonator::linewidth_hz(double frequency_hz, Polarization pol) const {
  return fsr_hz(frequency_hz, pol) / finesse();
}

double MicroringResonator::loaded_q(double frequency_hz, Polarization pol) const {
  return frequency_hz / linewidth_hz(frequency_hz, pol);
}

double MicroringResonator::peak_field_enhancement() const {
  const double a = round_trip_amplitude();
  const double k1sq = 1.0 - t1_ * t1_;
  const double d = 1.0 - t1_ * t2_ * a;
  return k1sq / (d * d);
}

double MicroringResonator::thermal_shift_hz_per_K(double frequency_hz,
                                                  Polarization pol) const {
  return -frequency_hz * waveguide_.dn_dT_per_K() /
         waveguide_.group_index(frequency_hz, pol);
}

cplx MicroringResonator::lorentzian_amplitude(double detuning_hz, double fwhm_hz) {
  if (fwhm_hz <= 0) throw std::invalid_argument("lorentzian_amplitude: fwhm <= 0");
  const double hw = fwhm_hz / 2.0;
  return hw / cplx(hw, detuning_hz);
}

double design_symmetric_coupling_for_linewidth(const Waveguide& waveguide,
                                               double radius_m, double loss_db_per_m,
                                               double target_linewidth_hz,
                                               double at_frequency_hz, Polarization pol) {
  if (target_linewidth_hz <= 0)
    throw std::invalid_argument("design_symmetric_coupling: linewidth <= 0");
  const double circumference = 2.0 * pi * radius_m;
  const double ng = waveguide.group_index(at_frequency_hz, pol);
  const double fsr = speed_of_light_m_per_s / (ng * circumference);
  const double finesse = fsr / target_linewidth_hz;
  // Solve π√ρ/(1−ρ) = F for ρ = t² a:  F ρ + π √ρ − F = 0 in x = √ρ.
  const double x = (-pi + std::sqrt(pi * pi + 4.0 * finesse * finesse)) / (2.0 * finesse);
  const double rho = x * x;
  const double a = std::pow(10.0, -loss_db_per_m * circumference / 20.0);
  if (rho >= a)
    throw qfc::NumericalError(
        "design_symmetric_coupling: target linewidth unreachable at this loss");
  return std::sqrt(rho / a);
}

}  // namespace qfc::photonics
