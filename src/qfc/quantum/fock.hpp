#pragma once

/// \file fock.hpp
/// The two-mode squeezed vacuum — the exact quantum state SFWM produces in one signal/idler resonance pair.
/// This is where multi-pair contamination (the dominant visibility / CAR
/// limit in the paper) comes from.

#include <cstddef>


namespace qfc::quantum {

/// Two-mode squeezed vacuum |ψ> = √(1−x) Σ x^{n/2} |n,n> with mean pair
/// number μ (x = μ/(1+μ)). Photon-number statistics in either arm are
/// thermal. All quantities are computed on a truncation chosen from μ.
class TwoModeSqueezedVacuum {
 public:
  explicit TwoModeSqueezedVacuum(double mean_pairs);

  double mean_pairs() const noexcept { return mu_; }

  /// P(n pairs) = μⁿ/(1+μ)^{n+1}.
  double pair_number_probability(std::size_t n) const;

  /// Heralded g²(0) of the signal arm given a bucket (non-number-resolving)
  /// herald detector of efficiency eta on the idler arm. For μ -> 0 this
  /// tends to 0 (single photons); multi-pair emission raises it ~ 4μ.
  double heralded_g2(double herald_efficiency) const;

 private:
  double mu_;
  std::size_t truncation_;
};

}  // namespace qfc::quantum
