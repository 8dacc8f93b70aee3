#pragma once

/// \file material.hpp
/// Bulk material dispersion models. The paper's platform is Hydex, a
/// CMOS-compatible high-index doped-silica glass (n ~ 1.7, negligible
/// nonlinear absorption; Moss et al., Nat. Photon. 7, 597 (2013)). The
/// exact Sellmeier coefficients are proprietary, so we use a two-term
/// Sellmeier surrogate fitted to the published refractive index and normal
/// bulk dispersion in the telecom window (see DESIGN.md §4).

#include <cstddef>

namespace qfc::photonics {

/// Two-term Sellmeier dispersion model:
///   n^2(λ) = 1 + Σ_i  B_i λ² / (λ² − C_i),  λ in meters.
class SellmeierMaterial {
 public:
  struct Term {
    double b;          ///< oscillator strength (dimensionless)
    double c_m2;       ///< resonance wavelength squared, m²
  };

  SellmeierMaterial(Term t1, Term t2, double thermo_optic_per_K, const char* name);

  /// Refractive index at vacuum wavelength (meters). Throws for wavelengths
  /// at/below the UV resonance of the model.
  double index(double wavelength_m) const;

  /// dn/dT, 1/K — used for thermal resonance-drift modeling.
  double thermo_optic_per_K() const noexcept { return dn_dT_; }

  const char* name() const noexcept { return name_; }

 private:
  Term t1_, t2_;
  double dn_dT_;
  const char* name_;
};

/// Hydex-like high-index glass: n(1550 nm) ≈ 1.70, normal bulk dispersion,
/// dn/dT ≈ 1.0e-5 / K (silica-like, the platform's thermal stability is one
/// of its selling points).
const SellmeierMaterial& hydex();

}  // namespace qfc::photonics
