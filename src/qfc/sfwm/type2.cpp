#include "qfc/sfwm/type2.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"
#include "qfc/sfwm/phase_matching.hpp"

namespace qfc::sfwm {

using photonics::pi;

Type2PairSource::Type2PairSource(const MicroringResonator& ring,
                                 photonics::CrossPolarizedPump pump,
                                 int num_channel_pairs, SfwmEfficiency eff)
    : ring_(ring), pump_(pump), num_pairs_(num_channel_pairs), eff_(eff) {
  pump_.validate();
  if (num_channel_pairs < 1)
    throw std::invalid_argument("Type2PairSource: need at least one channel pair");
}

double Type2PairSource::effective_intracavity_power_w() const {
  // Both pumps are resonant on their own polarization's resonance; the
  // type-II gain goes as the geometric mean of the circulating powers.
  const double fe = ring_.peak_field_enhancement();
  return std::sqrt(pump_.power_te_w * fe * pump_.power_tm_w * fe);
}

double Type2PairSource::photon_linewidth_hz() const {
  return ring_.linewidth_hz(pump_.frequency_te_hz, photonics::Polarization::TE);
}

double Type2PairSource::pair_rate_hz(int k) const {
  if (k < 1 || k > num_pairs_)
    throw std::out_of_range("Type2PairSource::pair_rate_hz: bad channel index");
  const double mismatch =
      type2_energy_mismatch_hz(ring_, pump_.frequency_te_hz, pump_.frequency_tm_hz, k);
  const double lw = photon_linewidth_hz();
  const double pm = lorentzian_pm_factor(mismatch, lw, lw);

  const double g = eff_.gamma_w_m * ring_.circumference_m() * effective_intracavity_power_w();
  const double esc = drop_port_escape_efficiency(ring_);
  return eff_.brightness_calibration * g * g * (pi / 2.0) * lw * esc * esc * pm;
}

double Type2PairSource::stimulated_suppression_db() const {
  return stimulated_fwm_suppression_db(ring_, pump_.frequency_te_hz,
                                       pump_.frequency_tm_hz);
}

OpoModel::OpoModel(const MicroringResonator& ring, SfwmEfficiency eff,
                   double slope_efficiency)
    : ring_(ring), eff_(eff), slope_(slope_efficiency) {
  if (slope_ <= 0 || slope_ > 1)
    throw std::invalid_argument("OpoModel: slope efficiency outside (0,1]");

  // Threshold: round-trip parametric gain γ L P_cav equals round-trip loss
  // 1 − t1 t2 a. Recover ρ = t1 t2 a from the finesse.
  const double f = ring_.finesse();
  const double x = (-pi + std::sqrt(pi * pi + 4.0 * f * f)) / (2.0 * f);
  const double rho = x * x;
  const double round_trip_loss = 1.0 - rho;
  const double fe2 = ring_.peak_field_enhancement();
  threshold_w_ =
      round_trip_loss / (eff_.gamma_w_m * ring_.circumference_m() * fe2);

  // Spontaneous (below-threshold) emission: pair rate x photon energy.
  // P_spont(P) = C (γ L FE² P)² (π/2) δν · hν  ≡  c · P².
  const double lw = ring_.linewidth_hz(photonics::itu_anchor_hz,
                                       photonics::Polarization::TE);
  const double g1 = eff_.gamma_w_m * ring_.circumference_m() * fe2;  // per watt
  spontaneous_coefficient_w_per_w2_ =
      eff_.brightness_calibration * g1 * g1 * (pi / 2.0) * lw *
      photonics::photon_energy_J(photonics::itu_anchor_hz);
}

double OpoModel::threshold_w() const { return threshold_w_; }

double OpoModel::output_power_w(double pump_power_w) const {
  if (pump_power_w < 0) throw std::invalid_argument("OpoModel: negative pump power");
  const double spont = spontaneous_coefficient_w_per_w2_ * pump_power_w * pump_power_w;
  if (pump_power_w <= threshold_w_) return spont;
  const double at_threshold =
      spontaneous_coefficient_w_per_w2_ * threshold_w_ * threshold_w_;
  return at_threshold + slope_ * (pump_power_w - threshold_w_);
}

}  // namespace qfc::sfwm
