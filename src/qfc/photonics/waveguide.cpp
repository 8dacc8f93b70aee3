#include "qfc/photonics/waveguide.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"

namespace qfc::photonics {

namespace {
constexpr double trim_reference_wavelength_m = 1.55e-6;
}

Waveguide::Waveguide(WaveguideGeometry geometry, const SellmeierMaterial& material,
                     double confinement_strength, double tm_phase_trim)
    : geometry_(geometry),
      material_(&material),
      eta_(confinement_strength),
      tm_phase_trim_(tm_phase_trim) {
  if (geometry.width_m <= 0 || geometry.height_m <= 0)
    throw std::invalid_argument("Waveguide: non-positive core dimension");
  if (eta_ < 0) throw std::invalid_argument("Waveguide: negative confinement strength");
}

double Waveguide::confinement_penalty(double wavelength_m, Polarization pol) const {
  const double d = (pol == Polarization::TE) ? geometry_.width_m : geometry_.height_m;
  const double ratio = wavelength_m / d;
  return eta_ * ratio * ratio;
}

double Waveguide::effective_index(double frequency_hz, Polarization pol) const {
  if (frequency_hz <= 0) throw std::invalid_argument("Waveguide: frequency <= 0");
  const double wl = wavelength_from_frequency(frequency_hz);
  double n = material_->index(wl) - confinement_penalty(wl, pol);
  if (pol == Polarization::TM)
    n += tm_phase_trim_ * (wl / trim_reference_wavelength_m);
  if (n <= 1.0)
    throw std::invalid_argument("Waveguide: mode below cutoff in surrogate model");
  return n;
}

double Waveguide::group_index(double frequency_hz, Polarization pol) const {
  const double h = frequency_hz * 1e-5;
  const double dn_df =
      (effective_index(frequency_hz + h, pol) - effective_index(frequency_hz - h, pol)) /
      (2 * h);
  return effective_index(frequency_hz, pol) + frequency_hz * dn_df;
}

double Waveguide::dn_dT_per_K() const { return material_->thermo_optic_per_K(); }

}  // namespace qfc::photonics
