#include "qfc/qudit/freq_bin_source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"

namespace qfc::qudit {

void FreqBinConfig::validate() const {
  io::check_fields(*this, "FreqBinConfig");
  if (!bin_phase_rad.empty() && bin_phase_rad.size() != dimension)
    throw std::invalid_argument(
        "FreqBinConfig.bin_phase_rad: size must equal dimension (or be empty)");
}

FreqBinSource::FreqBinSource(photonics::CombGrid grid, std::vector<double> brightness,
                             FreqBinConfig cfg)
    : grid_(std::move(grid)), brightness_(std::move(brightness)), cfg_(std::move(cfg)) {
  cfg_.validate();
  if (brightness_.size() < cfg_.dimension)
    throw std::invalid_argument("FreqBinSource: fewer brightness entries than bins");
  if (static_cast<std::size_t>(grid_.num_pairs()) < cfg_.dimension)
    throw std::invalid_argument("FreqBinSource: grid tracks fewer pairs than bins");
  double total = 0;
  for (std::size_t k = 0; k < cfg_.dimension; ++k) {
    if (brightness_[k] < 0)
      throw std::invalid_argument("FreqBinSource: negative brightness");
    total += brightness_[k];
  }
  if (total <= 0) throw std::invalid_argument("FreqBinSource: all bins dark");
}

FreqBinSource FreqBinSource::from_cw_source(const sfwm::CwPairSource& src,
                                            std::size_t dimension) {
  FreqBinConfig cfg;
  cfg.dimension = dimension;
  return FreqBinSource(src.grid(), src.pair_rates(), std::move(cfg));
}

CVec FreqBinSource::bin_amplitudes() const {
  CVec c(cfg_.dimension);
  for (std::size_t k = 0; k < cfg_.dimension; ++k) {
    const double phase = cfg_.bin_phase_rad.empty() ? 0.0 : cfg_.bin_phase_rad[k];
    c[k] = std::sqrt(brightness_[k]) * cplx(std::cos(phase), std::sin(phase));
  }
  linalg::vnormalize(c);
  return c;
}

quantum::StateVector FreqBinSource::state() const {
  return quantum::from_pair_amplitudes(bin_amplitudes());
}

quantum::StateVector FreqBinSource::shaped_state(const CVec& mask) const {
  if (mask.size() != cfg_.dimension)
    throw std::invalid_argument("shaped_state: mask size != dimension");
  CVec c = bin_amplitudes();
  for (std::size_t k = 0; k < c.size(); ++k) c[k] *= mask[k];
  return quantum::from_pair_amplitudes(c);  // renormalizes (post-selection)
}

double FreqBinSource::shaping_efficiency(const CVec& mask) const {
  if (mask.size() != cfg_.dimension)
    throw std::invalid_argument("shaping_efficiency: mask size != dimension");
  const CVec c = bin_amplitudes();
  double kept = 0;
  for (std::size_t k = 0; k < c.size(); ++k) {
    if (std::abs(mask[k]) > 1.0 + 1e-12)
      throw std::invalid_argument("shaping_efficiency: mask gain > 1 is unphysical");
    kept += std::norm(mask[k] * c[k]);
  }
  return kept;  // bin_amplitudes() is normalized, so this is the kept fraction
}

CVec FreqBinSource::flattening_mask() const {
  const CVec c = bin_amplitudes();
  double weakest = std::abs(c[0]);
  for (const auto& ck : c) weakest = std::min(weakest, std::abs(ck));
  if (weakest <= 0)
    throw std::invalid_argument("flattening_mask: a dark bin cannot be flattened");
  CVec mask(c.size());
  // Attenuate every bin to the weakest amplitude and unwind its phase, so
  // the shaped state is exactly (1/√d) Σ|kk⟩.
  for (std::size_t k = 0; k < c.size(); ++k) mask[k] = weakest / c[k];
  return mask;
}

quantum::StateVector FreqBinSource::flattened_state() const {
  return shaped_state(flattening_mask());
}

double FreqBinSource::schmidt_number() const {
  return quantum::schmidt_number(state(), 1);
}

double FreqBinSource::entanglement_entropy_bits() const {
  const quantum::DensityMatrix rho(state());
  return von_neumann_entropy_bits(rho.partial_trace_keep({0}));
}

}  // namespace qfc::qudit
