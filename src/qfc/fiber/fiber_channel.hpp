#pragma once

/// \file fiber_channel.hpp
/// Standard single-mode fiber channel for distributing the comb's photons
/// — the substrate behind the paper's headline application ("secure
/// communications", Sec. I). Models attenuation, chromatic dispersion
/// (which skews time bins across comb channels and smears them within a
/// channel's bandwidth), and excess background coupled into the channel.

#include <stdexcept>

namespace qfc::fiber {

struct FiberParams {
  double length_m = 0.0;
  /// SMF-28-like attenuation at 1550 nm.
  double attenuation_db_per_km = 0.20;
  /// Chromatic dispersion parameter D at 1550 nm, s/m² (17 ps/(nm·km)).
  double dispersion_s_per_m2 = 17e-6;
  /// Dispersion slope is ignored (< 1% effect over S+C+L for our spans).

  void validate() const {
    if (!(length_m >= 0)) throw std::invalid_argument("FiberParams: negative length");
    if (!(attenuation_db_per_km >= 0))
      throw std::invalid_argument("FiberParams: negative attenuation");
  }
};

class FiberChannel {
 public:
  explicit FiberChannel(FiberParams params);

  const FiberParams& params() const noexcept { return params_; }

  /// Power transmission of the span.
  double transmission() const;

  /// Temporal broadening of a photon of spectral width δν (Lorentzian
  /// FWHM) centered at `wavelength_m`:  Δt = D · L · Δλ with
  /// Δλ = λ²δν/c. Narrowband comb photons broaden negligibly — the reason
  /// the 200 GHz comb travels well.
  double pulse_broadening_s(double wavelength_m, double linewidth_hz) const;

  /// Time-bin interference visibility penalty: the two bins acquire a
  /// differential spread; once broadening approaches the bin separation
  /// the bins overlap and post-selection fails. Returns a factor in (0,1]:
  ///   V' = V · exp(−(Δt / bin_separation)²).
  double timebin_visibility_factor(double wavelength_m, double linewidth_hz,
                                   double bin_separation_s) const;

 private:
  FiberParams params_;
};

/// Copy of `base` with its length set to `length_km` kilometers — the
/// ergonomic step for callers (QKD links/networks) that keep one fiber
/// recipe and stamp out spans of varying length from it.
FiberParams with_length_km(FiberParams base, double length_km);

}  // namespace qfc::fiber
