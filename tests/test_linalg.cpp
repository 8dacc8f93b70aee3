// Unit + property tests for the linear-algebra substrate (S1).

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "qfc/linalg/error.hpp"
#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/linalg/solve.hpp"
#include "qfc/linalg/svd.hpp"

namespace {

using qfc::linalg::cplx;
using qfc::linalg::CMat;
using qfc::linalg::CVec;
using qfc::linalg::RMat;
using qfc::linalg::RVec;

CMat random_matrix(std::size_t r, std::size_t c, unsigned seed) {
  std::mt19937 g(seed);
  std::normal_distribution<double> n(0.0, 1.0);
  CMat m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = cplx(n(g), n(g));
  return m;
}

CMat random_hermitian(std::size_t n, unsigned seed) {
  const CMat a = random_matrix(n, n, seed);
  return qfc::linalg::hermitian_part(a);
}

// ---------------------------------------------------------------- Matrix

TEST(Matrix, ConstructsAndIndexes) {
  CMat m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = cplx(3, -1);
  EXPECT_EQ(m(1, 2), cplx(3, -1));
  EXPECT_EQ(m(0, 0), cplx(0, 0));
}

TEST(Matrix, InitializerListAndEquality) {
  const RMat a{{1, 2}, {3, 4}};
  EXPECT_EQ(a(0, 1), 2.0);
  EXPECT_EQ(a(1, 0), 3.0);
  const RMat b{{1, 2}, {3, 4}};
  EXPECT_EQ(a, b);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((RMat{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, OutOfRangeThrows) {
  CMat m(2, 2);
  EXPECT_THROW(m(2, 0), std::out_of_range);
  EXPECT_THROW(m(0, 2), std::out_of_range);
}

TEST(Matrix, IdentityMultiplication) {
  const CMat a = random_matrix(4, 4, 1);
  const CMat i4 = CMat::identity(4);
  const CMat prod = a * i4;
  EXPECT_LT((prod - a).max_abs(), 1e-14);
}

TEST(Matrix, MultiplicationAgainstHandComputed) {
  const RMat a{{1, 2}, {3, 4}};
  const RMat b{{5, 6}, {7, 8}};
  const RMat c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, ShapeMismatchThrows) {
  const CMat a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  CMat c(2, 2);
  EXPECT_THROW(c += a, std::invalid_argument);
}

TEST(Matrix, AdjointIsConjugateTranspose) {
  const CMat a = random_matrix(3, 5, 2);
  const CMat ad = a.adjoint();
  ASSERT_EQ(ad.rows(), 5u);
  ASSERT_EQ(ad.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(ad(j, i), std::conj(a(i, j)));
}

TEST(Matrix, TraceOfProductCyclic) {
  const CMat a = random_matrix(4, 4, 3);
  const CMat b = random_matrix(4, 4, 4);
  const cplx t1 = (a * b).trace();
  const cplx t2 = (b * a).trace();
  EXPECT_NEAR(std::abs(t1 - t2), 0.0, 1e-10);
}

TEST(Matrix, MatVecMatchesMatMat) {
  const CMat a = random_matrix(3, 3, 5);
  CVec x{cplx(1, 0), cplx(0, 1), cplx(2, -1)};
  const CVec y = a * x;
  CMat xm(3, 1);
  for (int i = 0; i < 3; ++i) xm(static_cast<std::size_t>(i), 0) = x[static_cast<std::size_t>(i)];
  const CMat ym = a * xm;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(std::abs(y[i] - ym(i, 0)), 0.0, 1e-12);
}

TEST(Matrix, KronDimensionsAndValues) {
  const RMat a{{1, 2}, {3, 4}};
  const RMat b{{0, 5}, {6, 7}};
  const RMat k = qfc::linalg::kron(a, b);
  ASSERT_EQ(k.rows(), 4u);
  ASSERT_EQ(k.cols(), 4u);
  EXPECT_DOUBLE_EQ(k(0, 1), 5);    // a(0,0)*b(0,1)
  EXPECT_DOUBLE_EQ(k(3, 2), 4 * 6);  // a(1,1)*b(1,0)
}

TEST(Matrix, KronMixedProductProperty) {
  // (A⊗B)(C⊗D) = (AC)⊗(BD)
  const CMat a = random_matrix(2, 2, 6), b = random_matrix(2, 2, 7);
  const CMat c = random_matrix(2, 2, 8), d = random_matrix(2, 2, 9);
  const CMat lhs = qfc::linalg::kron(a, b) * qfc::linalg::kron(c, d);
  const CMat rhs = qfc::linalg::kron(a * c, b * d);
  EXPECT_LT((lhs - rhs).max_abs(), 1e-10);
}

TEST(Vector, DotAndNorm) {
  CVec a{cplx(1, 1), cplx(0, 2)};
  CVec b{cplx(1, 0), cplx(1, 0)};
  const cplx d = qfc::linalg::vdot(a, b);  // conj(a).b
  EXPECT_NEAR(std::real(d), 1.0, 1e-15);
  EXPECT_NEAR(std::imag(d), -3.0, 1e-15);
  EXPECT_NEAR(qfc::linalg::vnorm(a), std::sqrt(6.0), 1e-15);
}

TEST(Vector, NormalizeZeroThrows) {
  CVec z(3, cplx(0, 0));
  EXPECT_THROW(qfc::linalg::vnormalize(z), std::invalid_argument);
}

TEST(Matrix, HermitianAndUnitaryPredicates) {
  EXPECT_TRUE(qfc::linalg::is_hermitian(random_hermitian(5, 10)));
  EXPECT_FALSE(qfc::linalg::is_hermitian(random_matrix(5, 5, 11)));
  const CMat h{{cplx(0, 0), cplx(1, 0)}, {cplx(1, 0), cplx(0, 0)}};  // Pauli X
  EXPECT_TRUE(qfc::linalg::is_unitary(h));
  CMat notu = h;
  notu *= cplx(2, 0);
  EXPECT_FALSE(qfc::linalg::is_unitary(notu));
}

// ------------------------------------------------------------- Eigen

TEST(HermitianEig, DiagonalMatrix) {
  CMat d(3, 3);
  d(0, 0) = cplx(3, 0);
  d(1, 1) = cplx(-1, 0);
  d(2, 2) = cplx(7, 0);
  const auto e = qfc::linalg::hermitian_eig(d);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 7, 1e-12);
  EXPECT_NEAR(e.values[1], 3, 1e-12);
  EXPECT_NEAR(e.values[2], -1, 1e-12);
}

TEST(HermitianEig, KnownTwoByTwo) {
  // Pauli X: eigenvalues ±1.
  const CMat x{{cplx(0, 0), cplx(1, 0)}, {cplx(1, 0), cplx(0, 0)}};
  const auto e = qfc::linalg::hermitian_eig(x);
  EXPECT_NEAR(e.values[0], 1, 1e-12);
  EXPECT_NEAR(e.values[1], -1, 1e-12);
}

TEST(HermitianEig, NonHermitianThrows) {
  EXPECT_THROW(qfc::linalg::hermitian_eig(random_matrix(3, 3, 12)),
               std::invalid_argument);
}

class HermitianEigProperty : public ::testing::TestWithParam<int> {};

TEST_P(HermitianEigProperty, ReconstructsAndOrthonormal) {
  const auto n = static_cast<std::size_t>(GetParam() % 13 + 2);
  const CMat a = random_hermitian(n, static_cast<unsigned>(GetParam()));
  const auto e = qfc::linalg::hermitian_eig(a);

  // Reconstruction A = V diag V†.
  CMat recon(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      cplx s(0, 0);
      for (std::size_t k = 0; k < n; ++k)
        s += e.vectors(i, k) * e.values[k] * std::conj(e.vectors(j, k));
      recon(i, j) = s;
    }
  EXPECT_LT((recon - a).max_abs(), 1e-9 * std::max(1.0, a.max_abs()));

  // V unitary.
  EXPECT_TRUE(qfc::linalg::is_unitary(e.vectors, 1e-9));

  // Sorted descending.
  for (std::size_t i = 1; i < n; ++i) EXPECT_GE(e.values[i - 1], e.values[i] - 1e-12);

  // Trace preserved.
  double tr = 0;
  for (double v : e.values) tr += v;
  EXPECT_NEAR(tr, std::real(a.trace()), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomHermitian, HermitianEigProperty,
                         ::testing::Range(1, 25));

// ------------------------------------------------------------- SVD

class SvdProperty : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SvdProperty, FactorsReconstructInput) {
  const auto [ri, ci, seed] = GetParam();
  const auto r = static_cast<std::size_t>(ri);
  const auto c = static_cast<std::size_t>(ci);
  const CMat a = random_matrix(r, c, static_cast<unsigned>(seed));
  const auto s = qfc::linalg::svd(a);

  const std::size_t k = std::min(r, c);
  ASSERT_EQ(s.sigma.size(), k);
  ASSERT_EQ(s.u.rows(), r);
  ASSERT_EQ(s.u.cols(), k);
  ASSERT_EQ(s.v.rows(), c);
  ASSERT_EQ(s.v.cols(), k);

  // Non-negative, descending.
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_GE(s.sigma[i], 0.0);
    if (i > 0) {
      EXPECT_GE(s.sigma[i - 1], s.sigma[i] - 1e-12);
    }
  }

  // A ≈ U Σ V†.
  CMat us = s.u;
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < r; ++i) us(i, j) *= s.sigma[j];
  const CMat recon = us * s.v.adjoint();
  EXPECT_LT((recon - a).max_abs(), 1e-9 * std::max(1.0, a.max_abs()));

  // V has orthonormal columns.
  const CMat vtv = s.v.adjoint() * s.v;
  EXPECT_LT((vtv - CMat::identity(k)).max_abs(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdProperty,
    ::testing::Values(std::make_tuple(4, 4, 1), std::make_tuple(6, 3, 2),
                      std::make_tuple(3, 6, 3), std::make_tuple(8, 8, 4),
                      std::make_tuple(16, 5, 5), std::make_tuple(5, 16, 6),
                      std::make_tuple(32, 32, 7), std::make_tuple(1, 7, 8),
                      std::make_tuple(7, 1, 9)));

TEST(Svd, KnownSingularValues) {
  // diag(3, 2) embedded in 2x2.
  CMat a(2, 2);
  a(0, 0) = cplx(3, 0);
  a(1, 1) = cplx(-2, 0);  // sign lands in the factors
  const auto s = qfc::linalg::svd(a);
  EXPECT_NEAR(s.sigma[0], 3, 1e-12);
  EXPECT_NEAR(s.sigma[1], 2, 1e-12);
}

TEST(Svd, RankDeficient) {
  // Rank-1 outer product: second singular value ~ 0.
  CVec u{cplx(1, 0), cplx(2, 0), cplx(-1, 0)};
  CVec v{cplx(0, 1), cplx(1, 0)};
  const CMat a = qfc::linalg::outer(u, v);
  const auto s = qfc::linalg::svd(a);
  EXPECT_NEAR(s.sigma[0], qfc::linalg::vnorm(u) * qfc::linalg::vnorm(v), 1e-10);
  EXPECT_NEAR(s.sigma[1], 0.0, 1e-10);
}

// ------------------------------------------------------- Least squares

TEST(LeastSquares, ExactLineFit) {
  // y = 2 + 3x fitted exactly through 5 points.
  RMat a(5, 2);
  RVec b(5);
  for (std::size_t i = 0; i < 5; ++i) {
    const double x = static_cast<double>(i);
    a(i, 0) = 1.0;
    a(i, 1) = x;
    b[i] = 2.0 + 3.0 * x;
  }
  const RVec c = qfc::linalg::least_squares(a, b);
  EXPECT_NEAR(c[0], 2.0, 1e-10);
  EXPECT_NEAR(c[1], 3.0, 1e-10);
}

TEST(LeastSquares, MinimizesResidual) {
  // Overdetermined noisy system: residual orthogonal to the column space.
  std::mt19937 g(77);
  std::normal_distribution<double> n(0.0, 1.0);
  RMat a(20, 3);
  RVec b(20);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = n(g);
    b[i] = n(g);
  }
  const RVec x = qfc::linalg::least_squares(a, b);
  // residual r = b - Ax must satisfy Aᵀ r = 0.
  RVec r = b;
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 3; ++j) r[i] -= a(i, j) * x[j];
  for (std::size_t j = 0; j < 3; ++j) {
    double dot = 0;
    for (std::size_t i = 0; i < 20; ++i) dot += a(i, j) * r[i];
    EXPECT_NEAR(dot, 0.0, 1e-9);
  }
}

TEST(LeastSquares, UnderdeterminedThrows) {
  RMat a(2, 3);
  RVec b(2);
  EXPECT_THROW(qfc::linalg::least_squares(a, b), std::invalid_argument);
}

// ----------------------------------------------------- Matrix functions

TEST(MatrixFunctions, SqrtmSquaresBack) {
  const CMat m = random_matrix(4, 4, 30);
  const CMat psd = m * m.adjoint();
  const CMat r = qfc::linalg::sqrtm_psd(psd);
  EXPECT_LT((r * r - psd).max_abs(), 1e-8 * std::max(1.0, psd.max_abs()));
  EXPECT_TRUE(qfc::linalg::is_hermitian(r, 1e-9));
}

TEST(MatrixFunctions, SqrtmRejectsNegative) {
  CMat neg = CMat::identity(2);
  neg(1, 1) = cplx(-0.5, 0);
  EXPECT_THROW(qfc::linalg::sqrtm_psd(neg), qfc::NumericalError);
}

TEST(MatrixFunctions, ProjectToDensityMatrixProperties) {
  // Start from a Hermitian matrix with negative eigenvalues and trace != 1.
  CMat h = random_hermitian(4, 31);
  const CMat rho = qfc::linalg::project_to_density_matrix(h);

  EXPECT_TRUE(qfc::linalg::is_hermitian(rho, 1e-9));
  EXPECT_NEAR(std::real(rho.trace()), 1.0, 1e-9);
  const auto evals = qfc::linalg::hermitian_eigenvalues(rho);
  for (double v : evals) EXPECT_GE(v, -1e-10);
}

TEST(MatrixFunctions, ProjectToDensityMatrixKeepsOrderOfNegativeTraceInput) {
  // Dividing diag(-0.9, -0.1) by its trace would swap which eigenvalue is
  // larger; the Frobenius-nearest density matrix is diag(0.1, 0.9).
  CMat h(2, 2);
  h(0, 0) = cplx(-0.9, 0);
  h(1, 1) = cplx(-0.1, 0);
  const CMat rho = qfc::linalg::project_to_density_matrix(h);
  EXPECT_NEAR(std::real(rho(0, 0)), 0.1, 1e-12);
  EXPECT_NEAR(std::real(rho(1, 1)), 0.9, 1e-12);
  EXPECT_LT(std::abs(rho(0, 1)), 1e-12);
}

TEST(MatrixFunctions, ProjectionIsIdempotentOnDensityMatrices) {
  // A valid density matrix must be returned (almost) unchanged.
  CMat rho(2, 2);
  rho(0, 0) = cplx(0.7, 0);
  rho(1, 1) = cplx(0.3, 0);
  rho(0, 1) = cplx(0.2, 0.1);
  rho(1, 0) = std::conj(rho(0, 1));
  const CMat p = qfc::linalg::project_to_density_matrix(rho);
  EXPECT_LT((p - rho).max_abs(), 1e-9);
}

}  // namespace
