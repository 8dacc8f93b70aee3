// Parity and determinism tests for the linalg kernels: the Blocked kernels
// the library runs must match the detail::reference_* kernels (eigenvalues,
// singular values, GEMM entries, reconstructions) to 1e-10 on seeded random
// inputs, and must be bitwise invariant across worker-thread counts.

#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/linalg/backend.hpp"
#include "qfc/linalg/error.hpp"
#include "qfc/linalg/matrix.hpp"
#include "qfc/linalg/matrix_functions.hpp"

namespace {

using qfc::linalg::BackendKind;
using qfc::linalg::CMat;
using qfc::linalg::cplx;
using qfc::linalg::EigOptions;
using qfc::linalg::RVec;
using qfc::linalg::detail::blocked_gemm;
using qfc::linalg::detail::blocked_hermitian_eig;
using qfc::linalg::detail::blocked_kron;
using qfc::linalg::detail::blocked_scaled_congruence;
using qfc::linalg::detail::blocked_svd;
using qfc::linalg::detail::reference_gemm;
using qfc::linalg::detail::reference_hermitian_eig;
using qfc::linalg::detail::reference_kron;
using qfc::linalg::detail::reference_scaled_congruence;
using qfc::linalg::detail::reference_svd;

CMat random_matrix(std::size_t r, std::size_t c, unsigned seed) {
  std::mt19937 g(seed);
  std::normal_distribution<double> n(0.0, 1.0);
  CMat m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = cplx(n(g), n(g));
  return m;
}

CMat random_hermitian(std::size_t n, unsigned seed) {
  return qfc::linalg::hermitian_part(random_matrix(n, n, seed));
}

double max_abs_diff(const CMat& a, const CMat& b) { return (a - b).max_abs(); }

// ------------------------------------------------------------- dispatch

TEST(BackendDispatch, Names) {
  EXPECT_STREQ(qfc::linalg::to_string(BackendKind::Reference), "reference");
  EXPECT_STREQ(qfc::linalg::to_string(BackendKind::Blocked), "blocked");
}

TEST(BackendDispatch, PublicEntryPointsRunBlockedKernels) {
  // operator* above the inline cutoff, hermitian_eig, svd and sqrtm_psd
  // are the Blocked kernels bit for bit, and the product still matches the
  // reference kernel to 1e-10.
  const CMat a = random_matrix(60, 44, 11);
  const CMat b = random_matrix(44, 52, 12);
  const CMat prod = a * b;
  CMat blk(60, 52), ref(60, 52);
  blocked_gemm(a, b, blk);
  reference_gemm(a, b, ref);
  EXPECT_EQ(prod, blk);
  EXPECT_LT(max_abs_diff(ref, prod), 1e-10);

  const CMat h = random_hermitian(48, 13);
  const auto eig = qfc::linalg::hermitian_eig(h);
  const auto eig_blk = blocked_hermitian_eig(h, {});
  EXPECT_EQ(eig.values, eig_blk.values);
  EXPECT_EQ(eig.vectors, eig_blk.vectors);

  const auto sv = qfc::linalg::svd(a);
  const auto sv_blk = blocked_svd(a, 96);
  EXPECT_EQ(sv.sigma, sv_blk.sigma);
  EXPECT_EQ(sv.u, sv_blk.u);
  EXPECT_EQ(sv.v, sv_blk.v);

  // h·h + 1 is positive definite, so no eigenvalue is clipped.
  const CMat psd = h * h + CMat::identity(48);
  const auto e = blocked_hermitian_eig(psd, {});
  RVec roots(e.values.size());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = std::sqrt(e.values[i]);
  EXPECT_EQ(qfc::linalg::sqrtm_psd(psd), blocked_scaled_congruence(e.vectors, roots));

  EXPECT_EQ(qfc::linalg::default_backend(), BackendKind::Blocked);
}

// ---------------------------------------------------------------- GEMM

TEST(BackendParity, GemmComplex) {
  // Spans the naive-fallback cutoff and odd shapes on both sides of it.
  const std::size_t shapes[][3] = {{8, 8, 8}, {33, 47, 29}, {70, 50, 90}, {128, 64, 128}};
  for (const auto& s : shapes) {
    const CMat a = random_matrix(s[0], s[1], 100 + static_cast<unsigned>(s[0]));
    const CMat b = random_matrix(s[1], s[2], 200 + static_cast<unsigned>(s[2]));
    CMat cr(s[0], s[2]), cb(s[0], s[2]);
    reference_gemm(a, b, cr);
    blocked_gemm(a, b, cb);
    EXPECT_LT(max_abs_diff(cr, cb), 1e-10) << s[0] << "x" << s[1] << "x" << s[2];
  }
}

// ----------------------------------------------------------------- eig

TEST(BackendParity, HermitianEigValuesAndReconstruction) {
  const EigOptions opt;
  for (const std::size_t n : {24u, 48u, 96u}) {
    const CMat a = random_hermitian(n, 300 + static_cast<unsigned>(n));
    const auto er = reference_hermitian_eig(a, opt);
    const auto eb = blocked_hermitian_eig(a, opt);
    ASSERT_EQ(er.values.size(), n);
    ASSERT_EQ(eb.values.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(er.values[i], eb.values[i], 1e-10) << "n=" << n << " i=" << i;

    // Eigenvectors are only unique up to phase/degenerate mixing; compare
    // the reconstruction V diag(λ) V† instead.
    const CMat rec = blocked_scaled_congruence(eb.vectors, eb.values);
    EXPECT_LT(max_abs_diff(rec, a), 1e-10) << "n=" << n;
    EXPECT_TRUE(qfc::linalg::is_unitary(eb.vectors, 1e-10)) << "n=" << n;
  }
}

TEST(BackendParity, EigenvaluesOnlyPathMatches) {
  const CMat a = random_hermitian(64, 7);
  EigOptions no_vec;
  no_vec.want_vectors = false;
  const auto vr = reference_hermitian_eig(a, no_vec).values;
  const auto vb = blocked_hermitian_eig(a, no_vec).values;
  for (std::size_t i = 0; i < vr.size(); ++i) EXPECT_NEAR(vr[i], vb[i], 1e-10);
}

// ----------------------------------------------------------------- SVD

TEST(BackendParity, SvdRectangular) {
  // Tall, wide, and square — the wide case exercises the adjoint swap.
  const std::size_t shapes[][2] = {{64, 48}, {48, 64}, {60, 60}};
  for (const auto& s : shapes) {
    const CMat a = random_matrix(s[0], s[1], 400 + static_cast<unsigned>(s[0]));
    const auto sr = reference_svd(a, 96);
    const auto sb = blocked_svd(a, 96);
    ASSERT_EQ(sr.sigma.size(), sb.sigma.size());
    for (std::size_t i = 0; i < sr.sigma.size(); ++i)
      EXPECT_NEAR(sr.sigma[i], sb.sigma[i], 1e-10) << s[0] << "x" << s[1] << " i=" << i;

    // U Σ V† must reproduce A.
    CMat us = sb.u;
    for (std::size_t i = 0; i < us.rows(); ++i)
      for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= sb.sigma[j];
    CMat rec(a.rows(), a.cols());
    blocked_gemm(us, sb.v.adjoint(), rec);
    EXPECT_LT(max_abs_diff(rec, a), 1e-10) << s[0] << "x" << s[1];
  }
}

// ------------------------------------------------- scaled congruence

TEST(BackendParity, ScaledCongruence) {
  const std::size_t n = 72;
  const CMat v = reference_hermitian_eig(random_hermitian(n, 9), {}).vectors;
  RVec d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = std::sin(0.3 * static_cast<double>(i + 1));
  const CMat r = reference_scaled_congruence(v, d);
  const CMat b = blocked_scaled_congruence(v, d);
  EXPECT_LT(max_abs_diff(r, b), 1e-10);
  // Hermitian to round-off (the (i,j)/(j,i) triple products round
  // independently, so bitwise symmetry is not guaranteed — same as the
  // reference loop).
  EXPECT_TRUE(qfc::linalg::is_hermitian(b, 1e-12));
}

// ----------------------------------------------- thread-count invariance

TEST(BackendDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  // set_backend_threads is an inert shim: any request is accepted, the
  // kernels stay serial and their bits do not move.
  const CMat h = random_hermitian(80, 21);
  const CMat r = random_matrix(96, 56, 22);
  const CMat ga = random_matrix(90, 70, 23);
  const CMat gb = random_matrix(70, 85, 24);

  qfc::linalg::set_backend_threads(1);
  const auto eig1 = blocked_hermitian_eig(h, {});
  const auto svd1 = blocked_svd(r, 96);
  CMat gemm1(90, 85);
  blocked_gemm(ga, gb, gemm1);

  for (const unsigned threads : {2u, 4u}) {
    qfc::linalg::set_backend_threads(threads);
    EXPECT_EQ(qfc::linalg::backend_threads(), 1u);
    EXPECT_EQ(qfc::linalg::backend_thread_request(), 1u);
    const auto eig = blocked_hermitian_eig(h, {});
    const auto svd = blocked_svd(r, 96);
    CMat gemm(90, 85);
    blocked_gemm(ga, gb, gemm);

    // Bitwise, not approximate: operator== compares every scalar exactly.
    EXPECT_EQ(eig1.values, eig.values) << threads << " threads";
    EXPECT_EQ(eig1.vectors, eig.vectors) << threads << " threads";
    EXPECT_EQ(svd1.sigma, svd.sigma) << threads << " threads";
    EXPECT_EQ(svd1.u, svd.u) << threads << " threads";
    EXPECT_EQ(svd1.v, svd.v) << threads << " threads";
    EXPECT_EQ(gemm1, gemm) << threads << " threads";
  }
}

TEST(BackendDeterminism, BlockedKernelsUnchangedAfterPoolRelocation) {
  // Pins that a single Blocked kernel never depends on the worker count:
  // on fresh seeded inputs, eig (round-robin path), SVD and GEMM must match
  // Reference to 1e-10 and be bitwise identical at 1 and 5 workers, a count
  // that divides neither the matrix dimensions nor the round sizes.
  const CMat h = random_hermitian(56, 71);
  const CMat a = random_matrix(83, 61, 72);
  const CMat b = random_matrix(61, 77, 73);

  qfc::linalg::set_backend_threads(1);
  const auto eig1 = blocked_hermitian_eig(h, {});
  const auto svd1 = blocked_svd(a, 96);
  CMat gemm1(83, 77);
  blocked_gemm(a, b, gemm1);

  qfc::linalg::set_backend_threads(5);
  const auto eig5 = blocked_hermitian_eig(h, {});
  const auto svd5 = blocked_svd(a, 96);
  CMat gemm5(83, 77);
  blocked_gemm(a, b, gemm5);

  EXPECT_EQ(eig1.values, eig5.values);
  EXPECT_EQ(eig1.vectors, eig5.vectors);
  EXPECT_EQ(svd1.sigma, svd5.sigma);
  EXPECT_EQ(svd1.u, svd5.u);
  EXPECT_EQ(gemm1, gemm5);

  const auto eig_ref = reference_hermitian_eig(h, {});
  for (std::size_t i = 0; i < eig_ref.values.size(); ++i)
    EXPECT_NEAR(eig_ref.values[i], eig1.values[i], 1e-10);
  CMat gemm_ref(83, 77);
  reference_gemm(a, b, gemm_ref);
  EXPECT_LT(max_abs_diff(gemm_ref, gemm1), 1e-10);
}

// ------------------------------------------------- consumers stay green

TEST(BackendIntegration, MatrixFunctionsUnderBlockedBackend) {
  const std::size_t n = 48;
  CMat a = random_hermitian(n, 31);
  CMat aa(n, n);
  blocked_gemm(a, a, aa);  // a² is PSD with a well-defined square root
  const CMat root = qfc::linalg::sqrtm_psd(aa);
  CMat square(n, n);
  blocked_gemm(root, root, square);
  EXPECT_LT(max_abs_diff(square, aa), 1e-8);
}

TEST(BackendIntegration, ValidationStillAppliesUnderBlockedBackend) {
  CMat not_hermitian = random_matrix(50, 50, 41);
  EXPECT_THROW(qfc::linalg::hermitian_eig(not_hermitian), std::invalid_argument);
  EXPECT_THROW(qfc::linalg::svd(CMat()), std::invalid_argument);
}

// ------------------------------------------------------------------ kron

TEST(BackendParity, KronBitwiseAcrossBackendsAndInlinePath) {
  // The kron micro-kernel is in the bitwise SIMD tier: Blocked must equal
  // Reference exactly, which in turn equals the inline matrix.hpp loop.
  const CMat a = random_matrix(12, 9, 501);
  const CMat b = random_matrix(10, 14, 502);
  CMat kr(120, 126), kb(120, 126);
  reference_kron(a, b, kr);
  blocked_kron(a, b, kb);
  EXPECT_EQ(kr, kb);

  CMat inline_loop(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      for (std::size_t k = 0; k < b.rows(); ++k)
        for (std::size_t l = 0; l < b.cols(); ++l)
          inline_loop(i * b.rows() + k, j * b.cols() + l) = a(i, j) * b(k, l);
  EXPECT_EQ(kr, inline_loop);
}

TEST(BackendParity, KronDispatchCutoffIsSeamless) {
  // linalg::kron switches from the inline loop to blocked_kron above 1024
  // output elements; results on both sides of the cutoff must equal the
  // direct definition bitwise (the kernels share its arithmetic).
  for (const std::size_t nb : {8u, 9u}) {  // 4·4·8·8 = 1024 (inline), 1152 (kernel)
    const CMat a = random_matrix(4, 4, 510);
    const CMat b = random_matrix(8, nb, 511 + static_cast<unsigned>(nb));
    const CMat out = qfc::linalg::kron(a, b);
    for (std::size_t i = 0; i < a.rows(); ++i)
      for (std::size_t j = 0; j < a.cols(); ++j)
        for (std::size_t k = 0; k < b.rows(); ++k)
          for (std::size_t l = 0; l < b.cols(); ++l)
            ASSERT_EQ(out(i * b.rows() + k, j * b.cols() + l), a(i, j) * b(k, l))
                << "nb=" << nb;
  }
}

// ------------------------------------------------------------ SIMD policy

/// Restores the SIMD request on scope exit.
struct SimdGuard {
  bool on = qfc::linalg::simd_request();
  ~SimdGuard() { qfc::linalg::set_simd_enabled(on); }
};

TEST(BackendSimd, EigAndKronBitwiseAcrossSimdModes) {
  // Policy pin: the rotation and kron kernels replicate scalar complex
  // arithmetic exactly (mul/addsub, no FMA), so eig and kron are bitwise
  // identical with SIMD on and off. On hardware without AVX2 both runs are
  // scalar and the assertions hold trivially.
  SimdGuard guard;
  const CMat h = random_hermitian(64, 900);     // round-robin path
  const CMat hs = random_hermitian(24, 901);    // cyclic path
  const CMat ka = random_matrix(10, 10, 902);
  const CMat kb = random_matrix(12, 12, 903);

  qfc::linalg::set_simd_enabled(false);
  const auto eig_off = blocked_hermitian_eig(h, {});
  const auto eig_small_off = blocked_hermitian_eig(hs, {});
  CMat kron_off(120, 120);
  blocked_kron(ka, kb, kron_off);

  qfc::linalg::set_simd_enabled(true);
  const auto eig_on = blocked_hermitian_eig(h, {});
  const auto eig_small_on = blocked_hermitian_eig(hs, {});
  CMat kron_on(120, 120);
  blocked_kron(ka, kb, kron_on);

  EXPECT_EQ(eig_off.values, eig_on.values);
  EXPECT_EQ(eig_off.vectors, eig_on.vectors);
  EXPECT_EQ(eig_small_off.values, eig_small_on.values);
  EXPECT_EQ(eig_small_off.vectors, eig_small_on.vectors);
  EXPECT_EQ(kron_off, kron_on);
}

TEST(BackendSimd, GemmAndSvdStayWithinToleranceAcrossSimdModes) {
  // Policy pin: the planar-FMA GEMM and the vectorized SVD Gram reductions
  // reorder accumulation, so they carry the relaxed 1e-10 contract (the
  // small-GEMM axpy path below the cutoff stays bitwise).
  SimdGuard guard;
  const CMat a = random_matrix(48, 48, 910);
  const CMat b = random_matrix(48, 48, 911);
  const CMat small_a = random_matrix(8, 8, 912);
  const CMat small_b = random_matrix(8, 8, 913);
  const CMat r = random_matrix(40, 32, 914);

  qfc::linalg::set_simd_enabled(false);
  CMat gemm_off(48, 48), small_off(8, 8);
  blocked_gemm(a, b, gemm_off);
  blocked_gemm(small_a, small_b, small_off);
  const auto svd_off = blocked_svd(r, 96);

  qfc::linalg::set_simd_enabled(true);
  CMat gemm_on(48, 48), small_on(8, 8);
  blocked_gemm(a, b, gemm_on);
  blocked_gemm(small_a, small_b, small_on);
  const auto svd_on = blocked_svd(r, 96);

  EXPECT_LT(max_abs_diff(gemm_off, gemm_on), 1e-10);
  EXPECT_EQ(small_off, small_on);  // axpy path: bitwise even with SIMD
  ASSERT_EQ(svd_off.sigma.size(), svd_on.sigma.size());
  for (std::size_t i = 0; i < svd_off.sigma.size(); ++i)
    EXPECT_NEAR(svd_off.sigma[i], svd_on.sigma[i], 1e-10);
}

TEST(BackendSimd, BlockedMatchesReferenceWithSimdDisabled) {
  // With SIMD off the Blocked eig below the cyclic cutoff IS the reference
  // sweep, and the Blocked SVD is the reference cyclic sweep at every size
  // and orientation: bitwise equality, not just 1e-10.
  SimdGuard guard;
  qfc::linalg::set_simd_enabled(false);
  const CMat h = random_hermitian(24, 920);
  const auto er = reference_hermitian_eig(h, {});
  const auto eb = blocked_hermitian_eig(h, {});
  EXPECT_EQ(er.values, eb.values);
  EXPECT_EQ(er.vectors, eb.vectors);

  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {20, 14}, {64, 64}, {96, 56}, {56, 96}};
  for (const auto& [rows, cols] : shapes) {
    const CMat a = random_matrix(rows, cols, 921 + static_cast<unsigned>(rows + cols));
    const auto sr = reference_svd(a, 96);
    const auto sb = blocked_svd(a, 96);
    EXPECT_EQ(sr.sigma, sb.sigma) << rows << "x" << cols;
    EXPECT_EQ(sr.u, sb.u) << rows << "x" << cols;
    EXPECT_EQ(sr.v, sb.v) << rows << "x" << cols;
  }
}

// ------------------------------------------------------------- validation

TEST(BackendValidation, NonFiniteInputIsRejectedByEveryEigAndSvdEntryPoint) {
  // A NaN or Inf entry used to run every Jacobi sweep silently (the stop
  // threshold is NaN) and then sort a spectrum containing NaN. Both the
  // cyclic (n = 2) and the round-robin (n = 50) sizes; validation lives in
  // the public entry points, so one pass covers every kernel behind them.
  const auto expect_rejected = [](const auto& call, const std::string& who) {
    try {
      call();
      ADD_FAILURE() << who << " accepted a non-finite input";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(who + ": non-finite"), std::string::npos)
          << e.what();
    }
  };
  for (const std::size_t n : {std::size_t{2}, std::size_t{50}}) {
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      CMat a = CMat::identity(n);
      a(0, 0) = bad;
      expect_rejected([&] { qfc::linalg::hermitian_eig(a); }, "hermitian_eig");
      expect_rejected([&] { qfc::linalg::hermitian_eigenvalues(a); },
                      "hermitian_eigenvalues");
      expect_rejected([&] { qfc::linalg::svd(a); }, "svd");
    }
    CMat off = CMat::identity(n);  // a non-finite imaginary part, off the diagonal
    off(0, 1) = cplx(0, std::nan(""));
    off(1, 0) = cplx(0, std::nan(""));
    expect_rejected([&] { qfc::linalg::svd(off); }, "svd");
  }
}

}  // namespace
