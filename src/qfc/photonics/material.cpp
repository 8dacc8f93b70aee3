#include "qfc/photonics/material.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"

namespace qfc::photonics {

SellmeierMaterial::SellmeierMaterial(Term t1, Term t2, double thermo_optic_per_K,
                                     const char* name)
    : t1_(t1), t2_(t2), dn_dT_(thermo_optic_per_K), name_(name) {}

double SellmeierMaterial::index(double wavelength_m) const {
  if (wavelength_m <= 0) throw std::invalid_argument("SellmeierMaterial::index: wavelength <= 0");
  const double l2 = wavelength_m * wavelength_m;
  if (l2 <= t1_.c_m2)
    throw std::invalid_argument("SellmeierMaterial::index: wavelength below UV resonance");
  const double n2 = 1.0 + t1_.b * l2 / (l2 - t1_.c_m2) + t2_.b * l2 / (l2 - t2_.c_m2);
  if (n2 <= 0) throw std::invalid_argument("SellmeierMaterial::index: model invalid here");
  return std::sqrt(n2);
}

const SellmeierMaterial& hydex() {
  // Surrogate fit: n(1550 nm) ≈ 1.70, normal bulk dispersion across S/C/L.
  static const SellmeierMaterial m({1.88, 1.21e-14}, {0.08, 8.1e-11}, 1.0e-5, "Hydex");
  return m;
}

}  // namespace qfc::photonics
