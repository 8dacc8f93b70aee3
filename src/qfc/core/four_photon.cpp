#include "qfc/core/four_photon.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/quantum/bell.hpp"

namespace qfc::core {

namespace {

/// A likelihood gap to two significant digits, rounded up so it stays a
/// bound. The certificate log λ_max(R) carries ~1e-15 of round-off that
/// follows the GEMM summation order, which at a gap of ~1e-8 moves its
/// seventh digit between SIMD settings; two digits are reproducible. The
/// result is the double nearest the rounded decimal (the integer mantissa
/// times or over a power of ten, exact up to 10^22), so it prints as two
/// digits: 6.9e-09, not 6.9000000000000006e-09.
double two_digits_up(double gap) {
  if (!(gap > 0) || !std::isfinite(gap)) return gap;
  const int k = static_cast<int>(std::floor(std::log10(gap))) - 1;
  const double scale = std::pow(10.0, std::abs(k));
  return k < 0 ? std::ceil(gap * scale) / scale : std::ceil(gap / scale) * scale;
}

}  // namespace

void FourPhotonConfig::validate() const {
  io::check_fields(*this, "FourPhotonConfig");
  io::check_fields(tomo_noise, "FourPhotonConfig.tomo_noise");
  if (pair_a == pair_b)
    throw std::invalid_argument("FourPhotonConfig.pair_b: must differ from pair_a");
}

FourPhotonExperiment::FourPhotonExperiment(photonics::MicroringResonator device,
                                           TimebinConfig timebin_cfg, FourPhotonConfig cfg,
                                           sfwm::SfwmEfficiency eff)
    : timebin_(device, timebin_cfg, eff), cfg_(cfg) {
  cfg_.validate();
  if (cfg.pair_a > timebin_cfg.num_channel_pairs ||
      cfg.pair_b > timebin_cfg.num_channel_pairs)
    throw std::invalid_argument("FourPhotonConfig: channel pair out of range");
}

quantum::DensityMatrix FourPhotonExperiment::true_state() const {
  const auto ma = timebin_.noise_model(cfg_.pair_a);
  const auto mb = timebin_.noise_model(cfg_.pair_b);
  const double phase = timebin_.config().pump.pump_phase_rad;
  return timebin::noisy_pair_state(ma, phase)
      .tensor(timebin::noisy_pair_state(mb, phase));
}

FourPhotonResult FourPhotonExperiment::run() {
  rng::Xoshiro256 g(cfg_.seed);
  FourPhotonResult res;

  const double phase = timebin_.config().pump.pump_phase_rad;
  const auto ma = timebin_.noise_model(cfg_.pair_a);
  const auto mb = timebin_.noise_model(cfg_.pair_b);
  const quantum::DensityMatrix rho_a = timebin::noisy_pair_state(ma, phase);
  const quantum::DensityMatrix rho_b = timebin::noisy_pair_state(mb, phase);
  const quantum::DensityMatrix rho4 = rho_a.tensor(rho_b);

  // --- Four-photon quantum interference -------------------------------
  // Flat background at fraction f of the mean fringe level; the mean of
  // Tr[ρ₄ Π(θ)⊗⁴] over θ is (1 + V²/2)/16 for pair visibility V.
  const double v_state = timebin::state_visibility(ma);
  const double mean_level =
      cfg_.fourfold_events_per_point * (1.0 + v_state * v_state / 2.0) / 16.0;
  const double floor = cfg_.fourfold_accidental_fraction * mean_level;
  // One interferometer phase θ for all four analyzers.
  res.fringe = {timebin::simulate_fringe(
      rho4, cfg_.fourfold_events_per_point, floor, cfg_.fringe_points,
      [](double theta) { return std::vector<double>(4, theta); }, g)};

  // The product fringe oscillates at 2θ: fit at that harmonic.
  std::vector<double> x2(res.fringe.phase_rad.size());
  for (std::size_t i = 0; i < x2.size(); ++i) x2[i] = 2.0 * res.fringe.phase_rad[i];
  // (1 + V cos x)² = 1 + V²/2 + 2V cos x + (V²/2) cos 2x: the fitted
  // first-harmonic visibility of the counts approximates the extrema-based
  // value; report the extrema-based analytic value alongside.
  res.fringe_fit = detect::fit_sinusoid(x2, res.fringe.counts);

  res.analytic_visibility =
      timebin::fourfold_visibility(v_state, cfg_.fourfold_accidental_fraction);

  // --- Tomography ------------------------------------------------------
  const quantum::StateVector bell = quantum::bell_phi(phase);
  const quantum::StateVector bell4 = bell.tensor(bell);

  const auto counts_a =
      tomo::simulate_counts(rho_a, cfg_.tomo_shots_per_setting, cfg_.tomo_noise, g);
  const auto mle_a = tomo::maximum_likelihood(counts_a);
  res.bell_fidelity_a = quantum::fidelity(mle_a.rho, bell);
  res.tomo_iterations_pair = mle_a.iterations;

  const auto counts_b =
      tomo::simulate_counts(rho_b, cfg_.tomo_shots_per_setting, cfg_.tomo_noise, g);
  const auto mle_b = tomo::maximum_likelihood(counts_b);
  res.bell_fidelity_b = quantum::fidelity(mle_b.rho, bell);
  res.converged_pair = mle_a.converged && mle_b.converged;

  const auto counts4 =
      tomo::simulate_counts(rho4, cfg_.tomo_shots_per_setting, cfg_.tomo_noise, g);
  const auto mle4 = tomo::maximum_likelihood(counts4);
  res.four_photon_fidelity = quantum::fidelity(mle4.rho, bell4);
  res.four_photon_state_fidelity = quantum::fidelity(rho4, bell4);
  res.tomo_iterations_four = mle4.iterations;
  res.converged_four = mle4.converged;
  res.likelihood_gap_four = two_digits_up(mle4.likelihood_gap);

  return res;
}

}  // namespace qfc::core
