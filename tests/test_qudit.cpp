// Tests for the frequency-bin qudit subsystem: mixed-radix states, the
// comb-backed FreqBinSource, the EOM + pulse-shaper measurement layer, the CGLMP Bell test (must reduce to
// CHSH at d = 2), and MUB tomography for prime d.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "qfc/photonics/device_presets.hpp"
#include "qfc/qudit/cglmp.hpp"
#include "qfc/qudit/freq_bin_source.hpp"
#include "qfc/qudit/measurement.hpp"
#include "qfc/qudit/mub.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/quantum/state.hpp"
#include "qfc/timebin/chsh.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using qfc::linalg::cplx;
using qfc::linalg::CMat;
using qfc::linalg::CVec;
using namespace qfc::qudit;
using namespace qfc::quantum;

constexpr double kPi = 3.14159265358979323846;

/// d-point discrete Fourier transform F(j, k) = ω^{jk}/√d.
CMat fourier(std::size_t d) {
  CMat f(d, d);
  for (std::size_t j = 0; j < d; ++j)
    for (std::size_t k = 0; k < d; ++k)
      f(j, k) = std::polar(1.0 / std::sqrt(static_cast<double>(d)),
                           2.0 * kPi * static_cast<double>(j * k % d) / static_cast<double>(d));
  return f;
}

/// Cyclic shift |j⟩ → |j+1 mod d⟩.
CMat cyclic_shift(std::size_t d) {
  CMat x(d, d);
  for (std::size_t j = 0; j < d; ++j) x((j + 1) % d, j) = cplx(1, 0);
  return x;
}

/// Single-qubit rotation exp(-i θ/2 σ_y).
CMat rotation_y(double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  return CMat{{c, -s}, {s, c}};
}

/// CGLMP I_d of the maximally entangled pair at the standard settings.
double max_entangled_cglmp(std::size_t d) {
  return cglmp_value(DensityMatrix(maximally_entangled(d)));
}

TEST(StateVector, GroundStateAndValidation) {
  const StateVector psi(Dims{3, 4});
  EXPECT_EQ(psi.dim(), 12u);
  EXPECT_NEAR(psi.probability(0), 1.0, 1e-15);
  EXPECT_THROW(StateVector(Dims{}), std::invalid_argument);
  EXPECT_THROW(StateVector(Dims{1, 3}), std::invalid_argument);
  EXPECT_THROW(StateVector(CVec(5, cplx(1, 0)), Dims{2, 3}), std::invalid_argument);
  EXPECT_THROW(StateVector(CVec(6, cplx(0, 0)), Dims{2, 3}), std::invalid_argument);
}

TEST(StateVector, MaximallyEntangledStructure) {
  const StateVector phi = maximally_entangled(3);
  EXPECT_EQ(phi.dim(), 9u);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(phi.probability(k * 3 + k), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(phi.probability(1), 0.0, 1e-15);
}

TEST(StateVector, ApplyLocalMatchesFullKron) {
  // F on particle 0 and X on particle 1 of a random-ish state, applied both
  // locally and as a full-register kron, must agree.
  CVec amps(12);
  for (std::size_t i = 0; i < amps.size(); ++i)
    amps[i] = cplx(std::sin(1.0 + 0.7 * static_cast<double>(i)),
                   std::cos(0.3 * static_cast<double>(i)));
  const StateVector psi(amps, Dims{3, 4});

  const CMat f3 = fourier(3);
  const CMat x4 = cyclic_shift(4);
  const StateVector via_local = psi.apply_local(f3, 0).apply_local(x4, 1);
  const StateVector via_full(qfc::linalg::kron(f3, x4) * psi.amplitudes(), psi.dims());
  for (std::size_t i = 0; i < psi.dim(); ++i)
    EXPECT_NEAR(std::abs(via_local.amplitude(i) - via_full.amplitude(i)), 0.0, 1e-12);

  // The all-qubit register is one more input: R_y(θ_q) on each of 3 qubits.
  CVec amps3(8);
  for (std::size_t i = 0; i < amps3.size(); ++i)
    amps3[i] = cplx(std::cos(0.4 + 1.1 * static_cast<double>(i)),
                    std::sin(0.9 * static_cast<double>(i)));
  const StateVector qubits(amps3);
  const CMat ry[3] = {rotation_y(0.3), rotation_y(1.2), rotation_y(-0.7)};
  const StateVector qubits_local =
      qubits.apply_local(ry[0], 0).apply_local(ry[1], 1).apply_local(ry[2], 2);
  const StateVector qubits_full(
      qfc::linalg::kron(qfc::linalg::kron(ry[0], ry[1]), ry[2]) * qubits.amplitudes(),
      qubits.dims());
  for (std::size_t i = 0; i < qubits.dim(); ++i)
    EXPECT_NEAR(std::abs(qubits_local.amplitude(i) - qubits_full.amplitude(i)), 0.0, 1e-12);
}

TEST(StateVector, ApplyLocalValidation) {
  const StateVector psi(Dims{3, 4});
  EXPECT_THROW(psi.apply_local(fourier(3), 1), std::invalid_argument);
  EXPECT_THROW(psi.apply_local(fourier(3), 2), std::out_of_range);
}

TEST(DensityMatrix, PartialTraceOfEntangledPairIsMixed) {
  for (std::size_t d : {2u, 3u, 5u}) {
    const DensityMatrix rho(maximally_entangled(d));
    const DensityMatrix reduced = rho.partial_trace_keep({0});
    EXPECT_EQ(reduced.dim(), d);
    EXPECT_NEAR(purity(reduced), 1.0 / static_cast<double>(d), 1e-12);
  }
}

TEST(DensityMatrix, PartialTraceOfProductRecoversFactors) {
  const StateVector a(CVec{cplx(0.6, 0), cplx(0, 0.8)}, Dims{2});
  const StateVector b(CVec{cplx(1, 0), cplx(1, 0), cplx(1, 0)}, Dims{3});
  const DensityMatrix ab = DensityMatrix(a).tensor(DensityMatrix(b));
  EXPECT_LT((ab.partial_trace_keep({0}).matrix() - DensityMatrix(a).matrix()).max_abs(),
            1e-12);
  EXPECT_LT((ab.partial_trace_keep({1}).matrix() - DensityMatrix(b).matrix()).max_abs(),
            1e-12);
}

TEST(DensityMatrix, MixedRadixPartialTraceMiddleParticle) {
  const StateVector psi =
      StateVector(Dims{2}).tensor(StateVector(Dims{3})).tensor(StateVector(Dims{2}));
  const DensityMatrix rho(psi);
  const DensityMatrix mid = rho.partial_trace_keep({1});
  EXPECT_EQ(mid.dim(), 3u);
  EXPECT_NEAR(std::real(mid.matrix()(0, 0)), 1.0, 1e-12);

  // The all-qubit register is one more input: keep qubits {0, 2} of an
  // entangled 3-qubit state, ρ_02(a0 a2, b0 b2) = Σ_t ρ(a0 t a2, b0 t b2).
  CVec amps(8);
  for (std::size_t i = 0; i < amps.size(); ++i)
    amps[i] = cplx(std::sin(0.5 + 0.8 * static_cast<double>(i)),
                   std::cos(1.3 * static_cast<double>(i)));
  const DensityMatrix qubits{StateVector(amps)};
  const DensityMatrix kept = qubits.partial_trace_keep({0, 2});
  ASSERT_EQ(kept.dims(), (Dims{2, 2}));
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = 0; b < 4; ++b) {
      cplx s(0, 0);
      for (std::size_t t = 0; t < 2; ++t)
        s += qubits.matrix()((a / 2) * 4 + t * 2 + a % 2, (b / 2) * 4 + t * 2 + b % 2);
      EXPECT_NEAR(std::abs(kept.matrix()(a, b) - s), 0.0, 1e-12);
    }
}

// Satellite criterion: the maximally entangled qudit pair carries log₂d
// ebits of entanglement entropy.
TEST(Measures, MaxEntangledEntropyIsLog2D) {
  for (std::size_t d : {2u, 3u, 4u, 5u, 7u}) {
    const DensityMatrix rho(maximally_entangled(d));
    const double e = von_neumann_entropy_bits(rho.partial_trace_keep({1}));
    EXPECT_NEAR(e, std::log2(static_cast<double>(d)), 1e-9) << "d=" << d;
  }
}

TEST(Measures, MaxEntangledNegativityClosedForm) {
  // N(Φ_d) = (d−1)/2 under the PPT criterion.
  for (std::size_t d : {2u, 3u, 4u}) {
    const DensityMatrix rho(maximally_entangled(d));
    EXPECT_NEAR(negativity(rho, 1), (static_cast<double>(d) - 1.0) / 2.0, 1e-9);
  }
}

TEST(Measures, SchmidtNumberCountsEntangledDimensions) {
  EXPECT_NEAR(schmidt_number(maximally_entangled(4)), 4.0, 1e-10);
  const StateVector product = StateVector(Dims{3}).tensor(StateVector(Dims{3}));
  EXPECT_NEAR(schmidt_number(product), 1.0, 1e-10);
}

TEST(FreqBinSource, AmplitudesFollowBrightness) {
  const qfc::photonics::CombGrid grid(193.1e12, 200e9, 6);
  const std::vector<double> brightness{4.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  FreqBinConfig cfg;
  cfg.dimension = 4;
  const FreqBinSource src(grid, brightness, cfg);
  const CVec c = src.bin_amplitudes();
  ASSERT_EQ(c.size(), 4u);
  EXPECT_NEAR(std::norm(c[0]), 4.0 / 7.0, 1e-12);  // 4/(4+1+1+1)
  EXPECT_NEAR(std::norm(c[1]), 1.0 / 7.0, 1e-12);
  const StateVector psi = src.state();
  EXPECT_NEAR(psi.probability(0), 4.0 / 7.0, 1e-12);  // |0⟩|0⟩
  EXPECT_NEAR(psi.probability(5), 1.0 / 7.0, 1e-12);  // |1⟩|1⟩
}

TEST(FreqBinSource, FlatteningYieldsMaximallyEntangled) {
  const qfc::photonics::CombGrid grid(193.1e12, 200e9, 5);
  FreqBinConfig cfg;
  cfg.dimension = 3;
  cfg.bin_phase_rad = {0.0, 0.4, -1.1};
  const FreqBinSource src(grid, {2.0, 1.0, 0.5, 0.1, 0.1}, cfg);

  EXPECT_LT(src.schmidt_number(), 3.0);
  const StateVector flat = src.flattened_state();
  EXPECT_NEAR(flat.overlap_probability(maximally_entangled(3)), 1.0, 1e-12);
  // Procrustean cost: kept fraction = d * weakest bin probability.
  const double weakest = 0.5 / 3.5;
  EXPECT_NEAR(src.shaping_efficiency(src.flattening_mask()), 3 * weakest, 1e-12);
  EXPECT_NEAR(schmidt_number(flat), 3.0, 1e-10);
}

TEST(FreqBinSource, FromCwSourceUsesPairRates) {
  using namespace qfc;
  const auto ring = photonics::entanglement_device();
  photonics::CwPump pump;
  pump.power_w = 0.01;
  pump.frequency_hz = photonics::pump_resonance_hz(ring);
  const sfwm::CwPairSource cw(ring, pump, 8);
  const auto src = FreqBinSource::from_cw_source(cw, 6);
  EXPECT_EQ(src.dimension(), 6u);
  // Brightness falls off with k through phase matching, so the state is
  // entangled but not maximally (1 < K < d).
  const double k = src.schmidt_number();
  EXPECT_GT(k, 1.0);
  EXPECT_LE(k, 6.0);
  EXPECT_GT(src.entanglement_entropy_bits(), 0.0);
}

TEST(Analyzer, FourierVectorsAreOrthonormal) {
  const FreqBinAnalyzer an(5);
  for (std::size_t k = 0; k < 5; ++k)
    for (std::size_t l = 0; l < 5; ++l) {
      const cplx ip = qfc::linalg::vdot(an.fourier_vector(k, 0.37),
                                        an.fourier_vector(l, 0.37));
      EXPECT_NEAR(std::abs(ip), k == l ? 1.0 : 0.0, 1e-12);
    }
}

TEST(Analyzer, ProjectionEfficiencyFollowsBesselEnvelope) {
  AnalyzerConfig cfg;
  cfg.modulation_index = 1.2;
  cfg.detection_bin = 2;
  const FreqBinAnalyzer an(5, cfg);
  // A component sitting on the detection bin passes through the carrier
  // sideband J₀(m); components n bins away pay J_n(m).
  CVec single(5, cplx(0, 0));
  single[2] = cplx(1, 0);
  const double j0 = 0.6711327442643626;  // J₀(1.2); avoids std::cyl_bessel_j,
                                         // which libc++ lacks
  EXPECT_NEAR(an.projection_efficiency(single), j0 * j0, 1e-12);
  // A uniform superposition reaching distant bins does strictly worse.
  CVec uniform(5, cplx(1, 0));
  const double eff = an.projection_efficiency(uniform);
  EXPECT_GT(eff, 0.0);
  EXPECT_LT(eff, j0 * j0);
}

// Acceptance criterion: CGLMP at d = 2 matches the existing timebin CHSH
// to 1e-9, across the whole Werner family (both are linear in ρ).
TEST(Cglmp, ReducesToChshAtD2) {
  const auto settings = qfc::timebin::optimal_settings_for_phi(0.0);
  for (double v : {1.0, 0.9, 0.7071, 0.5, 0.2, 0.0}) {
    const qfc::quantum::DensityMatrix werner = qfc::quantum::werner_phi(v);
    const double s_chsh = qfc::timebin::chsh_s_value(werner, settings);
    const DensityMatrix as_qudit(werner.matrix(), Dims{2, 2});
    const double i2 = cglmp_value(as_qudit);
    EXPECT_NEAR(i2, s_chsh, 1e-9) << "V=" << v;
  }
  EXPECT_NEAR(max_entangled_cglmp(2), 2.0 * std::sqrt(2.0), 1e-9);
}

// Acceptance criterion: d = 4 maximally entangled state violates the
// classical CGLMP bound of 2.
TEST(Cglmp, ViolationGrowsWithDimension) {
  const double i2 = max_entangled_cglmp(2);
  const double i3 = max_entangled_cglmp(3);
  const double i4 = max_entangled_cglmp(4);
  // Reference values from CGLMP (PRL 88, 040404) Table/text.
  EXPECT_NEAR(i2, 2.8284271, 1e-6);
  EXPECT_NEAR(i3, 2.8729340, 1e-6);
  EXPECT_NEAR(i4, 2.8962432, 1e-6);
  EXPECT_GT(i3, i2);
  EXPECT_GT(i4, i3);
  EXPECT_GT(i4, cglmp_classical_bound());

  // Independent cross-check: the closed-form joint probabilities of the
  // maximally entangled state, P(m,n) = 1/(2d³ sin²[π((n−m)−(α+β))/d]),
  // must match the projector-based computation.
  const std::size_t d = 5;
  const DensityMatrix phi(maximally_entangled(d));
  const auto p = cglmp_joint_probabilities(phi, 0, 0);  // α+β = 1/4
  for (std::size_t m = 0; m < d; ++m)
    for (std::size_t n = 0; n < d; ++n) {
      const double theta =
          (static_cast<double>(n) - static_cast<double>(m) - 0.25) * kPi /
          static_cast<double>(d);
      const double closed =
          1.0 / (2.0 * std::pow(static_cast<double>(d), 3) *
                 std::pow(std::sin(theta), 2));
      EXPECT_NEAR(p[m * d + n], closed, 1e-12);
    }
}

TEST(Cglmp, MixedStateLosesViolation) {
  const StateVector phi3 = maximally_entangled(3);
  // I_d is linear in ρ and vanishes on the maximally mixed state.
  const double i_pure = cglmp_value(DensityMatrix(phi3));
  for (double v : {0.8, 0.5, 0.1}) {
    const double i_noisy = cglmp_value(isotropic_noise(phi3, v));
    EXPECT_NEAR(i_noisy, v * i_pure, 1e-9);
  }
  EXPECT_NEAR(cglmp_value(DensityMatrix(Dims{3, 3})), 0.0, 1e-12);
}

TEST(Cglmp, MeasurementRejectsBadInput) {
  qfc::rng::Xoshiro256 g(3);
  const DensityMatrix pair(maximally_entangled(3));
  // A single qudit is not a pair; the count knobs go through
  // tomo::sample_outcome_counts' checks.
  EXPECT_THROW(measure_cglmp(DensityMatrix(Dims{3}), 1000, 0.0, g), std::invalid_argument);
  EXPECT_THROW(measure_cglmp(pair, 0, 0.0, g), std::invalid_argument);
  EXPECT_THROW(measure_cglmp(pair, 1000, -1.0, g), std::invalid_argument);
  // A NaN pair number passes a `<= 0` check and used to hang the sampler.
  EXPECT_THROW(measure_cglmp(pair, std::numeric_limits<double>::quiet_NaN(), 0.0, g),
               std::invalid_argument);
}

TEST(Cglmp, CountBasedMeasurementAgreesWithExact) {
  qfc::rng::Xoshiro256 g(42);
  const DensityMatrix rho(maximally_entangled(3));
  const auto m = measure_cglmp(rho, 200000, 5.0, g);
  EXPECT_TRUE(m.violates_classical());
  EXPECT_NEAR(m.i_value, max_entangled_cglmp(3), 0.05);
  EXPECT_GT(m.sigmas_above_classical(), 5.0);
}

TEST(Cglmp, SchmidtNumberWitnessCertifiesDimension) {
  EXPECT_EQ(schmidt_number_witness(DensityMatrix(maximally_entangled(4))), 4u);
  EXPECT_EQ(schmidt_number_witness(DensityMatrix(Dims{4, 4})), 1u);
  // Product state: F = 1/d, certifies only Schmidt number 1.
  const StateVector product = StateVector(Dims{3}).tensor(StateVector(Dims{3}));
  EXPECT_EQ(schmidt_number_witness(DensityMatrix(product)), 1u);
  // Lightly noisy Φ_4 still certifies the full dimension.
  EXPECT_EQ(schmidt_number_witness(isotropic_noise(maximally_entangled(4), 0.95)),
            4u);
}

TEST(Mub, BasesAreMutuallyUnbiased) {
  for (std::size_t d : {2u, 3u, 5u, 7u}) {
    const auto bases = mub_bases(d);
    ASSERT_EQ(bases.size(), d + 1);
    const double target = 1.0 / static_cast<double>(d);
    for (std::size_t b = 0; b < bases.size(); ++b) {
      EXPECT_TRUE(qfc::linalg::is_unitary(bases[b])) << "d=" << d << " b=" << b;
      for (std::size_t b2 = b + 1; b2 < bases.size(); ++b2) {
        const CMat overlap = bases[b].adjoint() * bases[b2];
        for (std::size_t i = 0; i < d; ++i)
          for (std::size_t j = 0; j < d; ++j)
            EXPECT_NEAR(std::norm(overlap(i, j)), target, 1e-10)
                << "d=" << d << " pair (" << b << "," << b2 << ")";
      }
    }
  }
}

TEST(Mub, RejectsNonPrime) {
  EXPECT_THROW(mub_bases(4), std::invalid_argument);
  EXPECT_THROW(mub_bases(6), std::invalid_argument);
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(31));
  EXPECT_FALSE(is_prime(33));
}

TEST(Mub, SingleQuditLinearInversionRoundTrip) {
  const StateVector psi(CVec{cplx(0.8, 0), cplx(0, 0.5), cplx(-0.3, 0.1)}, Dims{3});
  const DensityMatrix rho(psi);
  qfc::rng::Xoshiro256 g(7);
  const auto data = qfc::tomo::simulate_counts(rho, mub_bases(3), 2e6, 0.0, g);
  ASSERT_EQ(data.size(), 4u);
  const CMat est = qfc::tomo::linear_inversion(data, mub_bases(3));
  EXPECT_NEAR(std::real(est.trace()), 1.0, 1e-6);
  EXPECT_LT((est - rho.matrix()).max_abs(), 0.01);
}

// Satellite criterion: MUB tomography round-trips a random d = 3 state to
// fidelity > 0.99.
TEST(Mub, TwoQutritTomographyRoundTrip) {
  // A "random" (fixed-seed, unstructured) two-qutrit pure state.
  qfc::rng::Xoshiro256 amp_rng(2026);
  CVec amps(9);
  for (auto& a : amps) a = cplx(amp_rng.uniform(-1, 1), amp_rng.uniform(-1, 1));
  const StateVector psi(amps, Dims{3, 3});
  const DensityMatrix rho(psi);

  qfc::rng::Xoshiro256 g(11);
  const auto data = qfc::tomo::simulate_counts(rho, mub_bases(3), 50000, 0.0, g);
  ASSERT_EQ(data.size(), 16u);  // (d+1)² settings

  const auto mle = qfc::tomo::maximum_likelihood(data, mub_bases(3));
  EXPECT_TRUE(mle.converged);
  EXPECT_GT(fidelity(mle.rho, psi), 0.99);
}

TEST(Mub, TomographyRecoversEntangledQutritPair) {
  const StateVector phi = maximally_entangled(3);
  qfc::rng::Xoshiro256 g(99);
  const auto data =
      qfc::tomo::simulate_counts(isotropic_noise(phi, 0.9), mub_bases(3), 50000, 0.0, g);
  const auto mle = qfc::tomo::maximum_likelihood(data, mub_bases(3));
  // Reconstruction preserves the entanglement metrics of the true state.
  EXPECT_NEAR(fidelity(mle.rho, phi), 0.9 + 0.1 / 9.0, 0.02);
  EXPECT_GT(negativity(mle.rho, 1), 0.5);
}

}  // namespace
