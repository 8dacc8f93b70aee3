#include "qfc/fiber/fiber_channel.hpp"

#include <cmath>

#include "qfc/photonics/constants.hpp"

namespace qfc::fiber {

FiberChannel::FiberChannel(FiberParams params) : params_(params) { params_.validate(); }

double FiberChannel::transmission() const {
  const double loss_db = params_.attenuation_db_per_km * params_.length_m / 1000.0;
  return std::pow(10.0, -loss_db / 10.0);
}

double FiberChannel::pulse_broadening_s(double wavelength_m, double linewidth_hz) const {
  const double c = photonics::speed_of_light_m_per_s;
  const double dlambda = wavelength_m * wavelength_m * linewidth_hz / c;
  return std::abs(params_.dispersion_s_per_m2) * params_.length_m * dlambda;
}

double FiberChannel::timebin_visibility_factor(double wavelength_m, double linewidth_hz,
                                               double bin_separation_s) const {
  if (bin_separation_s <= 0)
    throw std::invalid_argument("timebin_visibility_factor: bin separation <= 0");
  const double dt = pulse_broadening_s(wavelength_m, linewidth_hz);
  const double x = dt / bin_separation_s;
  return std::exp(-x * x);
}

FiberParams with_length_km(FiberParams base, double length_km) {
  if (length_km < 0)
    throw std::invalid_argument("with_length_km: negative length");
  base.length_m = length_km * 1000.0;
  return base;
}

}  // namespace qfc::fiber
