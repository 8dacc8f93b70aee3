// Blocked backend kernels: SIMD (AVX2, runtime-dispatched) complex
// micro-kernels feeding a planar-packed GEMM, cyclic/round-robin Jacobi
// eigendecomposition, one-sided Jacobi SVD and a cache-blocked kron, each
// one serial code path (see src/qfc/linalg/README.md).
//
// Determinism: no kernel threads, so its floating-point operation order is
// fixed.
//
// SIMD policy: the rotation-pair / column-rotation / kron row-scale kernels
// replicate the scalar std::complex arithmetic operation-for-operation
// (mul + permute + addsub, never FMA), so eig and kron results are bitwise
// identical whether the vector path runs or not. The planar GEMM and the
// SVD Gram-dot reductions use FMA and reordered accumulators and are only
// guaranteed to 1e-10 across modes. The build adds -ffp-contract=off so the
// scalar expressions can never be silently contracted into FMA either
// (which would break the bitwise half of this contract on -march builds).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "qfc/linalg/backend.hpp"
#include "qfc/linalg/error.hpp"
#include "qfc/obs/obs.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QFC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace qfc::linalg {

namespace {

void count_blocked_gemm(std::size_t m, std::size_t k, std::size_t n) {
  if (!obs::metrics_enabled()) return;
  obs::counter("linalg.blocked.gemm.calls").increment();
  obs::counter("linalg.blocked.gemm.flops").add(detail::gemm_flops(m, k, n));
}

// ------------------------------------------------------------ SIMD control

bool initial_simd_request() {
  if (const char* env = std::getenv("QFC_LINALG_SIMD")) {
    std::string s(env);
    for (char& ch : s) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    if (s == "off" || s == "0" || s == "false" || s == "scalar") return false;
  }
  return true;  // unset or anything else: vector path allowed
}

std::atomic<bool>& simd_request_slot() {
  static std::atomic<bool> v{initial_simd_request()};
  return v;
}

bool cpu_supports_simd() {
#if QFC_SIMD_X86
  // FMA is required by the planar GEMM / Gram kernels; every AVX2 part
  // ships it, but check anyway so the fallback is airtight.
  static const bool ok = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

bool simd_active() {
  return simd_request_slot().load(std::memory_order_relaxed) && cpu_supports_simd();
}

// ------------------------------------------------------- SIMD micro-kernels
//
// The complex-rotation kernels below are bitwise clones of the scalar
// expressions they replace: a std::complex<double> product (a*b) lowers to
// (ar*br - ai*bi, ar*bi + ai*br), which is exactly one permute + two muls +
// one addsub per two elements. No FMA is used in these kernels, and the
// translation unit is built with -ffp-contract=off, so the compiler cannot
// re-fuse either side into something with different rounding.

/// In-place rotation of two length-n complex ranges:
///   a[k] <- c*x - sa*y,  b[k] <- sb*x + c*y   with x=a[k], y=b[k].
/// Both Jacobi row updates (sa=sp, sb=conj(sp)) and the one-sided /
/// eigenvector updates (sa=conj(sp), sb=sp) are this shape.
void rotate_pair_scalar(cplx* a, cplx* b, std::size_t n, double c, cplx sa, cplx sb) {
  for (std::size_t k = 0; k < n; ++k) {
    const cplx x = a[k], y = b[k];
    a[k] = c * x - sa * y;
    b[k] = sb * x + c * y;
  }
}

#if QFC_SIMD_X86
__attribute__((target("avx2"))) void rotate_pair_avx2(cplx* a, cplx* b, std::size_t n,
                                                      double c, cplx sa, cplx sb) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const __m256d cv = _mm256_set1_pd(c);
  const __m256d sar = _mm256_set1_pd(sa.real());
  const __m256d sai = _mm256_set1_pd(sa.imag());
  const __m256d sbr = _mm256_set1_pd(sb.real());
  const __m256d sbi = _mm256_set1_pd(sb.imag());
  const std::size_t nd = 2 * n;
  std::size_t k = 0;
  for (; k + 4 <= nd; k += 4) {
    const __m256d x = _mm256_loadu_pd(pa + k);
    const __m256d y = _mm256_loadu_pd(pb + k);
    const __m256d xsw = _mm256_permute_pd(x, 0x5);  // swap re/im per element
    const __m256d ysw = _mm256_permute_pd(y, 0x5);
    const __m256d say = _mm256_addsub_pd(_mm256_mul_pd(y, sar), _mm256_mul_pd(ysw, sai));
    const __m256d sbx = _mm256_addsub_pd(_mm256_mul_pd(x, sbr), _mm256_mul_pd(xsw, sbi));
    _mm256_storeu_pd(pa + k, _mm256_sub_pd(_mm256_mul_pd(x, cv), say));
    _mm256_storeu_pd(pb + k, _mm256_add_pd(sbx, _mm256_mul_pd(y, cv)));
  }
  for (std::size_t e = k / 2; e < n; ++e) {
    const cplx x = a[e], y = b[e];
    a[e] = c * x - sa * y;
    b[e] = sb * x + c * y;
  }
}
#endif

void rotate_pair(cplx* a, cplx* b, std::size_t n, double c, cplx sa, cplx sb) {
#if QFC_SIMD_X86
  if (simd_active()) {
    rotate_pair_avx2(a, b, n, c, sa, sb);
    return;
  }
#endif
  rotate_pair_scalar(a, b, n, c, sa, sb);
}

/// One column-pair Jacobi rotation as seen by a row sweep:
///   row[p] <- c*x - conj(sp)*y,  row[q] <- sp*x + c*y.
struct ColRot {
  std::size_t p = 0, q = 0;
  double c = 1.0;
  cplx sp{0, 0};
};

/// Applies `rots` (disjoint column pairs) to the first `rows` rows of a
/// row-major matrix, one row at a time. Each element is touched by exactly
/// one rotation, so this equals a per-rotation column walk bit for bit.
void apply_col_rotations_scalar(cplx* base, std::size_t stride, std::size_t rows,
                                const ColRot* rots, std::size_t nrots) {
  for (std::size_t k = 0; k < rows; ++k) {
    cplx* row = base + k * stride;
    for (std::size_t i = 0; i < nrots; ++i) {
      const ColRot& r = rots[i];
      const cplx x = row[r.p], y = row[r.q];
      row[r.p] = r.c * x - std::conj(r.sp) * y;
      row[r.q] = r.sp * x + r.c * y;
    }
  }
}

#if QFC_SIMD_X86
// Two rows per iteration: element (k,p) of each row pair packs into one ymm
// register, and the per-128-bit-lane complex multiply is the same bitwise
// mul/permute/addsub shape as rotate_pair_avx2.
__attribute__((target("avx2"))) void apply_col_rotations_avx2(cplx* base, std::size_t stride,
                                                              std::size_t rows,
                                                              const ColRot* rots,
                                                              std::size_t nrots) {
  std::size_t k = 0;
  for (; k + 2 <= rows; k += 2) {
    double* row0 = reinterpret_cast<double*>(base + k * stride);
    double* row1 = reinterpret_cast<double*>(base + (k + 1) * stride);
    for (std::size_t i = 0; i < nrots; ++i) {
      const ColRot& r = rots[i];
      const __m256d cv = _mm256_set1_pd(r.c);
      const __m256d spr = _mm256_set1_pd(r.sp.real());
      const __m256d spi = _mm256_set1_pd(r.sp.imag());
      const __m256d spi_neg = _mm256_set1_pd(-r.sp.imag());  // conj(sp).imag
      const __m128d x0 = _mm_loadu_pd(row0 + 2 * r.p);
      const __m128d x1 = _mm_loadu_pd(row1 + 2 * r.p);
      const __m128d y0 = _mm_loadu_pd(row0 + 2 * r.q);
      const __m128d y1 = _mm_loadu_pd(row1 + 2 * r.q);
      const __m256d x = _mm256_insertf128_pd(_mm256_castpd128_pd256(x0), x1, 1);
      const __m256d y = _mm256_insertf128_pd(_mm256_castpd128_pd256(y0), y1, 1);
      const __m256d xsw = _mm256_permute_pd(x, 0x5);
      const __m256d ysw = _mm256_permute_pd(y, 0x5);
      const __m256d cjy =
          _mm256_addsub_pd(_mm256_mul_pd(y, spr), _mm256_mul_pd(ysw, spi_neg));
      const __m256d spx = _mm256_addsub_pd(_mm256_mul_pd(x, spr), _mm256_mul_pd(xsw, spi));
      const __m256d xp = _mm256_sub_pd(_mm256_mul_pd(x, cv), cjy);
      const __m256d yp = _mm256_add_pd(spx, _mm256_mul_pd(y, cv));
      _mm_storeu_pd(row0 + 2 * r.p, _mm256_castpd256_pd128(xp));
      _mm_storeu_pd(row1 + 2 * r.p, _mm256_extractf128_pd(xp, 1));
      _mm_storeu_pd(row0 + 2 * r.q, _mm256_castpd256_pd128(yp));
      _mm_storeu_pd(row1 + 2 * r.q, _mm256_extractf128_pd(yp, 1));
    }
  }
  if (k < rows) apply_col_rotations_scalar(base + k * stride, stride, rows - k, rots, nrots);
}
#endif

void apply_col_rotations(cplx* base, std::size_t stride, std::size_t rows,
                         const ColRot* rots, std::size_t nrots) {
#if QFC_SIMD_X86
  if (simd_active()) {
    apply_col_rotations_avx2(base, stride, rows, rots, nrots);
    return;
  }
#endif
  apply_col_rotations_scalar(base, stride, rows, rots, nrots);
}

/// Gram entries of two length-m complex columns (stored as rows here):
/// app = ||x||², aqq = ||y||², apq = <x|y>. The scalar form is the exact
/// reference summation order; the AVX2 form uses 4-lane FMA accumulators
/// (relaxed: 1e-10-level differences across SIMD modes — documented policy).
struct GramDot {
  double app = 0, aqq = 0;
  cplx apq{0, 0};
};

GramDot gram_dot_scalar(const cplx* x, const cplx* y, std::size_t m) {
  GramDot g;
  for (std::size_t k = 0; k < m; ++k) {
    g.app += std::norm(x[k]);
    g.aqq += std::norm(y[k]);
    g.apq += std::conj(x[k]) * y[k];
  }
  return g;
}

#if QFC_SIMD_X86
__attribute__((target("avx2"))) double hsum_avx2(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

__attribute__((target("avx2,fma"))) GramDot gram_dot_avx2(const cplx* xc, const cplx* yc,
                                                          std::size_t m) {
  const double* x = reinterpret_cast<const double*>(xc);
  const double* y = reinterpret_cast<const double*>(yc);
  __m256d app = _mm256_setzero_pd();
  __m256d aqq = _mm256_setzero_pd();
  __m256d cre = _mm256_setzero_pd();
  __m256d cim = _mm256_setzero_pd();  // lanes hold [xi*yr, xr*yi] pairs
  const std::size_t md = 2 * m;
  std::size_t k = 0;
  for (; k + 4 <= md; k += 4) {
    const __m256d xv = _mm256_loadu_pd(x + k);
    const __m256d yv = _mm256_loadu_pd(y + k);
    app = _mm256_fmadd_pd(xv, xv, app);
    aqq = _mm256_fmadd_pd(yv, yv, aqq);
    cre = _mm256_fmadd_pd(xv, yv, cre);
    cim = _mm256_fmadd_pd(_mm256_permute_pd(xv, 0x5), yv, cim);
  }
  // Im <x|y> = sum(xr*yi - xi*yr): negate the xi*yr lanes before reducing.
  const __m256d sign = _mm256_set_pd(1.0, -1.0, 1.0, -1.0);
  GramDot g;
  g.app = hsum_avx2(app);
  g.aqq = hsum_avx2(aqq);
  double re = hsum_avx2(cre);
  double im = hsum_avx2(_mm256_mul_pd(cim, sign));
  for (std::size_t e = k / 2; e < m; ++e) {
    g.app += std::norm(xc[e]);
    g.aqq += std::norm(yc[e]);
    const cplx t = std::conj(xc[e]) * yc[e];
    re += t.real();
    im += t.imag();
  }
  g.apq = cplx(re, im);
  return g;
}
#endif

GramDot gram_dot(const cplx* x, const cplx* y, std::size_t m) {
#if QFC_SIMD_X86
  if (simd_active()) return gram_dot_avx2(x, y, m);
#endif
  return gram_dot_scalar(x, y, m);
}

/// dst[j] = s * src[j] — the kron inner loop. The complex AVX2 form is the
/// same bitwise mul/permute/addsub complex product as the rotation kernels.
void scale_row_scalar(cplx* dst, const cplx* src, std::size_t n, cplx s) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = s * src[j];
}

#if QFC_SIMD_X86
__attribute__((target("avx2"))) void scale_row_avx2(cplx* dstc, const cplx* srcc,
                                                    std::size_t n, cplx s) {
  double* dst = reinterpret_cast<double*>(dstc);
  const double* src = reinterpret_cast<const double*>(srcc);
  const __m256d sr = _mm256_set1_pd(s.real());
  const __m256d si = _mm256_set1_pd(s.imag());
  const std::size_t nd = 2 * n;
  std::size_t k = 0;
  for (; k + 4 <= nd; k += 4) {
    const __m256d b = _mm256_loadu_pd(src + k);
    const __m256d bsw = _mm256_permute_pd(b, 0x5);
    _mm256_storeu_pd(dst + k, _mm256_addsub_pd(_mm256_mul_pd(b, sr), _mm256_mul_pd(bsw, si)));
  }
  for (std::size_t e = k / 2; e < n; ++e) dstc[e] = s * srcc[e];
}
#endif

void scale_row(cplx* dst, const cplx* src, std::size_t n, cplx s) {
#if QFC_SIMD_X86
  if (simd_active()) {
    scale_row_avx2(dst, src, n, s);
    return;
  }
#endif
  scale_row_scalar(dst, src, n, s);
}

// ------------------------------------------------------------ blocked GEMM
//
// Two paths, picked by SIMD mode:
//  - SIMD active: split B into planar re/im arrays so the
//    inner loop is four real FMA streams over contiguous memory — the form
//    AVX FMA units actually like (a complex "interleaved" inner loop
//    de-vectorizes). Per-row planar accumulators, interleave-store per row.
//  - scalar: an axpy panel kernel (crow += aik * brow) with
//    k/j cache blocking — complex dots de-vectorize under generic -O3, so
//    the contiguous axpy form is the faster scalar baseline.

// Below this flop count the dispatch/packing overhead dominates the scalar
// path and the reference ikj loop (with its structural-sparsity skip) wins;
// the quantum layer's many tiny gate products stay on that path. The planar
// SIMD path has no such crossover — it wins at every benched size.
constexpr std::size_t kGemmFlopCutoff = std::size_t{48} * 48 * 48;

// With SIMD active, complex products at or below this m*k*n use the
// vectorized axpy kernel (no packing, bitwise equal to reference); above
// it the planar-FMA kernel's packing pays for itself.
constexpr std::size_t kGemmAxpySimdCutoff = std::size_t{16} * 16 * 16;

constexpr std::size_t kGemmColBlock = 512;    // C cols per cache block
constexpr std::size_t kGemmDepthBlock = 64;   // k extent per cache block

void blocked_gemm_scalar(const CMat& a, const CMat& b, CMat& c) {
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  count_blocked_gemm(m, kk, n);
  QFC_OBS_SPAN("linalg.gemm", {{"m", m}, {"n", n}});
  const cplx* pa = a.data();
  const cplx* pb = b.data();
  cplx* pc = c.data();
  for (std::size_t kb = 0; kb < kk; kb += kGemmDepthBlock) {
    const std::size_t k1 = std::min(kb + kGemmDepthBlock, kk);
    for (std::size_t jb = 0; jb < n; jb += kGemmColBlock) {
      const std::size_t j1 = std::min(jb + kGemmColBlock, n);
      for (std::size_t i = 0; i < m; ++i) {
        const cplx* arow = pa + i * kk;
        cplx* crow = pc + i * n;
        for (std::size_t k = kb; k < k1; ++k) {
          const cplx aik = arow[k];
          if (aik == cplx{}) continue;
          const cplx* brow = pb + k * n;
          for (std::size_t j = jb; j < j1; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

#if QFC_SIMD_X86
// Small-matrix complex GEMM: the reference ikj axpy loop with the inner j
// loop vectorized (same mul/permute/addsub product as the rotation kernels,
// same k accumulation order), so it is bitwise identical to reference_gemm
// while skipping the planar path's packing overhead.
__attribute__((target("avx2"))) void gemm_axpy_rows_avx2(const CMat& a, const CMat& b,
                                                         CMat& c) {
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  const cplx* pa = a.data();
  const cplx* pb = b.data();
  cplx* pc = c.data();
  const std::size_t nd = 2 * n;
  for (std::size_t i = 0; i < m; ++i) {
    const cplx* arow = pa + i * kk;
    double* crow = reinterpret_cast<double*>(pc + i * n);
    for (std::size_t k = 0; k < kk; ++k) {
      const cplx aik = arow[k];
      if (aik == cplx{}) continue;
      const double* brow = reinterpret_cast<const double*>(pb + k * n);
      const __m256d ar = _mm256_set1_pd(aik.real());
      const __m256d ai = _mm256_set1_pd(aik.imag());
      std::size_t j = 0;
      for (; j + 4 <= nd; j += 4) {
        const __m256d bv = _mm256_loadu_pd(brow + j);
        const __m256d bsw = _mm256_permute_pd(bv, 0x5);
        const __m256d prod =
            _mm256_addsub_pd(_mm256_mul_pd(bv, ar), _mm256_mul_pd(bsw, ai));
        _mm256_storeu_pd(crow + j, _mm256_add_pd(_mm256_loadu_pd(crow + j), prod));
      }
      for (std::size_t e = j / 2; e < n; ++e) pc[i * n + e] += aik * pb[k * n + e];
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_planar_avx2(
    const cplx* pa, std::size_t m, std::size_t kk, std::size_t n, const double* bre,
    const double* bim, cplx* pc, double* cre, double* cim) {
  for (std::size_t i = 0; i < m; ++i) {
    const cplx* arow = pa + i * kk;
    for (std::size_t j = 0; j < n; ++j) {
      cre[j] = 0;
      cim[j] = 0;
    }
    for (std::size_t k = 0; k < kk; ++k) {
      const double ar = arow[k].real(), ai = arow[k].imag();
      if (ar == 0.0 && ai == 0.0) continue;  // structural-sparsity skip
      const __m256d arv = _mm256_set1_pd(ar);
      const __m256d aiv = _mm256_set1_pd(ai);
      const double* br = bre + k * n;
      const double* bi = bim + k * n;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        __m256d cr = _mm256_loadu_pd(cre + j);
        __m256d ci = _mm256_loadu_pd(cim + j);
        const __m256d brv = _mm256_loadu_pd(br + j);
        const __m256d biv = _mm256_loadu_pd(bi + j);
        cr = _mm256_fmadd_pd(arv, brv, cr);
        cr = _mm256_fnmadd_pd(aiv, biv, cr);
        ci = _mm256_fmadd_pd(arv, biv, ci);
        ci = _mm256_fmadd_pd(aiv, brv, ci);
        _mm256_storeu_pd(cre + j, cr);
        _mm256_storeu_pd(cim + j, ci);
      }
      for (; j < n; ++j) {
        cre[j] += ar * br[j] - ai * bi[j];
        cim[j] += ar * bi[j] + ai * br[j];
      }
    }
    cplx* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] = cplx(cre[j], cim[j]);
  }
}

void blocked_gemm_planar(const CMat& a, const CMat& b, CMat& c) {
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  count_blocked_gemm(m, kk, n);
  QFC_OBS_SPAN("linalg.gemm", {{"m", m}, {"n", n}});
  std::vector<double> bre(kk * n), bim(kk * n);
  const cplx* pb = b.data();
  for (std::size_t k = 0; k < kk; ++k) {
    const cplx* brow = pb + k * n;
    double* r = bre.data() + k * n;
    double* s = bim.data() + k * n;
    for (std::size_t j = 0; j < n; ++j) {
      r[j] = brow[j].real();
      s[j] = brow[j].imag();
    }
  }
  std::vector<double> cre(n), cim(n);  // one C row of planar accumulators
  gemm_planar_avx2(a.data(), m, kk, n, bre.data(), bim.data(), c.data(), cre.data(),
                   cim.data());
}
#endif

// ------------------------------------------- round-robin rotation schedule

/// Chess-tournament schedule over m players (m even): m-1 rounds, each
/// pairing all players into m/2 disjoint pairs, every unordered pair exactly
/// once per sweep. Player m-1 stays fixed; the others rotate one seat per
/// round (classic circle method).
class RoundRobin {
 public:
  explicit RoundRobin(std::size_t m) : m_(m), ring_(m > 0 ? m - 1 : 0) {
    std::iota(ring_.begin(), ring_.end(), std::size_t{0});
  }

  std::size_t rounds() const noexcept { return m_ > 1 ? m_ - 1 : 0; }
  std::size_t pairs_per_round() const noexcept { return m_ / 2; }

  /// Pair i of the current round, normalized so p < q.
  std::pair<std::size_t, std::size_t> pair(std::size_t i) const {
    std::size_t x, y;
    if (i == 0) {
      x = m_ - 1;
      y = ring_[0];
    } else {
      x = ring_[i];
      y = ring_[m_ - 1 - i];
    }
    return x < y ? std::pair<std::size_t, std::size_t>{x, y}
                 : std::pair<std::size_t, std::size_t>{y, x};
  }

  void advance() { std::rotate(ring_.begin(), ring_.begin() + 1, ring_.end()); }

 private:
  std::size_t m_;
  std::vector<std::size_t> ring_;
};

using detail::jacobi_params;
using detail::JacobiParams;
using detail::off_diag_norm2;

// Below this dimension the round-robin bookkeeping (two-phase rounds)
// costs more than it saves; the cyclic path — the exact reference rotation
// order driven through the SIMD kernels, bitwise identical to Reference —
// is faster there. Above it the round-robin row sweep's unit-stride access
// wins.
constexpr std::size_t kEigCyclicMaxDim = 40;

// ------------------------------------------------------------- cyclic eig

/// Reference cyclic Jacobi, rotation-for-rotation, but with the column/row
/// updates running through the (bitwise-identical) SIMD kernels. Used below
/// kEigCyclicMaxDim, where it beats both the reference loop (vector width)
/// and the round-robin path (no per-round bookkeeping).
EigResult cyclic_hermitian_eig(const CMat& input, const EigOptions& opt) {
  const std::size_t n = input.rows();
  QFC_OBS_SPAN("linalg.eig.blocked", {{"n", n}});
  CMat a = hermitian_part(input);  // symmetrize away round-off
  // V is accumulated transposed (row j of `vt` is column j of V), so its
  // updates are unit-stride rotate_pair calls, bitwise equal to the
  // reference column walk.
  CMat vt = opt.want_vectors ? CMat::identity(n) : CMat();
  cplx* pa = a.data();
  cplx* pvt = opt.want_vectors ? vt.data() : nullptr;

  const double stop =
      detail::jacobi_stop_threshold(std::max(a.frobenius_norm(), 1e-300), n);

  std::uint64_t sweeps_done = 0, rotations_done = 0;
  bool converged = false;
  for (int sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    if (off_diag_norm2(a) <= stop) {
      converged = true;
      break;
    }
    ++sweeps_done;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const cplx apq = a(p, q);
        const double mag = std::abs(apq);
        if (mag < 1e-300) continue;
        ++rotations_done;
        const JacobiParams jp =
            jacobi_params(std::real(a(p, p)), std::real(a(q, q)), apq, mag);
        const ColRot rot{p, q, jp.c, jp.sp};
        // Same update sequence as the reference sweep: columns p,q over all
        // rows, then rows p,q, then the pivot/diagonal cleanup, then V.
        apply_col_rotations(pa, n, n, &rot, 1);
        rotate_pair(pa + p * n, pa + q * n, n, jp.c, jp.sp, std::conj(jp.sp));
        a(p, q) = cplx(0, 0);
        a(q, p) = cplx(0, 0);
        a(p, p) = cplx(std::real(a(p, p)), 0);
        a(q, q) = cplx(std::real(a(q, q)), 0);
        if (pvt != nullptr)
          rotate_pair(pvt + p * n, pvt + q * n, n, jp.c, std::conj(jp.sp), jp.sp);
      }
    }
  }
  if (!converged && off_diag_norm2(a) > stop)
    throw NumericalError("hermitian_eig(blocked): Jacobi did not converge");

  if (obs::metrics_enabled()) {
    obs::counter("linalg.blocked.eig.calls").increment();
    obs::counter("linalg.blocked.eig.sweeps").add(sweeps_done);
    obs::counter("linalg.blocked.eig.rotations").add(rotations_done);
  }
  CMat v = opt.want_vectors ? vt.transpose() : CMat();
  return detail::finalize_eig(a, v, opt.want_vectors);
}

}  // namespace

// -------------------------------------------------------------- public API

// The kernels are serial, so the thread knob has nothing to set.
void set_backend_threads(unsigned) {}
unsigned backend_threads() { return 1; }
unsigned backend_thread_request() { return 1; }

void set_simd_enabled(bool on) {
  simd_request_slot().store(on, std::memory_order_relaxed);
}

bool simd_enabled() { return simd_active(); }

bool simd_request() { return simd_request_slot().load(std::memory_order_relaxed); }

namespace detail {

void blocked_gemm(const CMat& a, const CMat& b, CMat& c) {
#if QFC_SIMD_X86
  if (simd_active()) {
    if (a.rows() * a.cols() * b.cols() <= kGemmAxpySimdCutoff) {
      count_blocked_gemm(a.rows(), a.cols(), b.cols());
      gemm_axpy_rows_avx2(a, b, c);
      return;
    }
    blocked_gemm_planar(a, b, c);
    return;
  }
#endif
  if (a.rows() * a.cols() * b.cols() <= kGemmFlopCutoff) {
    reference_gemm(a, b, c);
    return;
  }
  blocked_gemm_scalar(a, b, c);
}

CMat blocked_scaled_congruence(const CMat& v, const RVec& d) {
  // diag-scale the columns once, then one blocked GEMM against V†.
  const std::size_t n = d.size();
  CMat w(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k) w(i, k) = v(i, k) * d[k];
  CMat out(n, n);
  blocked_gemm(w, v.adjoint(), out);
  return out;
}

EigResult blocked_hermitian_eig(const CMat& input, const EigOptions& opt) {
  const std::size_t n = input.rows();
  if (n < kEigCyclicMaxDim) return cyclic_hermitian_eig(input, opt);

  QFC_OBS_SPAN("linalg.eig.blocked", {{"n", n}});
  std::uint64_t sweeps_done = 0, rotations_done = 0;

  CMat a = hermitian_part(input);  // symmetrize away round-off
  // The eigenvector accumulator is stored transposed (row j of `vt` is
  // column j of V) so its rotation updates are unit-stride rotate_pair
  // calls instead of stride-n column walks.
  CMat vt = opt.want_vectors ? CMat::identity(n) : CMat();
  cplx* pa = a.data();
  cplx* pvt = opt.want_vectors ? vt.data() : nullptr;

  const double stop =
      detail::jacobi_stop_threshold(std::max(a.frobenius_norm(), 1e-300), n);

  const std::size_t m = n + (n & 1);  // odd n: pad with a bye "player"
  std::vector<ColRot> rots;
  rots.reserve(m / 2);

  bool converged = false;
  for (int sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    if (off_diag_norm2(a) <= stop) {
      converged = true;
      break;
    }
    ++sweeps_done;
    RoundRobin rr(m);
    for (std::size_t round = 0; round < rr.rounds(); ++round, rr.advance()) {
      // Parameters from the round-start matrix. Each pair reads only its
      // own (p,p), (q,q), (p,q) entries, which no other pair of the round
      // touches.
      rots.clear();
      for (std::size_t i = 0; i < rr.pairs_per_round(); ++i) {
        const auto [p, q] = rr.pair(i);
        if (q >= n) continue;  // bye pair
        const cplx apq = a(p, q);
        const double mag = std::abs(apq);
        if (mag < 1e-300) continue;
        const JacobiParams jp =
            jacobi_params(std::real(a(p, p)), std::real(a(q, q)), apq, mag);
        rots.push_back(ColRot{p, q, jp.c, jp.sp});
      }
      rotations_done += rots.size();

      // Left action J†A: rewrite rows p,q (contiguous memory).
      for (const ColRot& r : rots)
        rotate_pair(pa + r.p * n, pa + r.q * n, n, r.c, r.sp, std::conj(r.sp));
      // Right action (J†A)J, swept row by row so every access is
      // unit-stride; then the transposed eigenvector rows.
      apply_col_rotations(pa, n, n, rots.data(), rots.size());
      if (pvt != nullptr)
        for (const ColRot& r : rots)
          rotate_pair(pvt + r.p * n, pvt + r.q * n, n, r.c, std::conj(r.sp), r.sp);

      // Zero the pivots exactly and enforce a real diagonal.
      for (const ColRot& r : rots) {
        a(r.p, r.q) = cplx(0, 0);
        a(r.q, r.p) = cplx(0, 0);
        a(r.p, r.p) = cplx(std::real(a(r.p, r.p)), 0);
        a(r.q, r.q) = cplx(std::real(a(r.q, r.q)), 0);
      }
    }
  }
  if (!converged && off_diag_norm2(a) > stop)
    throw NumericalError("hermitian_eig(blocked): round-robin Jacobi did not converge");

  if (obs::metrics_enabled()) {
    obs::counter("linalg.blocked.eig.calls").increment();
    obs::counter("linalg.blocked.eig.sweeps").add(sweeps_done);
    obs::counter("linalg.blocked.eig.rotations").add(rotations_done);
  }
  CMat v = opt.want_vectors ? vt.transpose() : CMat();
  return finalize_eig(a, v, opt.want_vectors);
}

SvdResult blocked_svd(const CMat& a, int max_sweeps) {
  const std::size_t m = a.rows(), n = a.cols();
  // Work on the orientation with fewer columns, like the reference kernel.
  if (n > m) {
    SvdResult t = blocked_svd(a.adjoint(), max_sweeps);
    return SvdResult{std::move(t.v), std::move(t.sigma), std::move(t.u)};
  }

  QFC_OBS_SPAN("linalg.svd.blocked", {{"m", m}, {"n", n}});
  std::uint64_t sweeps_done = 0, rotations_done = 0;

  // Transposed working copies: row j of `wt` is column j of A and row j of
  // `vt` is column j of V, so every Gram dot product and rotation of the
  // one-sided Jacobi walks unit-stride memory.
  CMat wt = a.transpose();
  CMat vt = CMat::identity(n);
  cplx* pw = wt.data();
  cplx* pv = vt.data();

  // Cyclic pair order with the reference thresholds: in scalar SIMD mode
  // this reproduces the reference SVD bitwise; the AVX2 Gram reduction
  // relaxes that to 1e-10.
  bool converged = false;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    ++sweeps_done;
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        cplx* rp = pw + p * m;
        cplx* rq = pw + q * m;
        const GramDot g = gram_dot(rp, rq, m);
        const double mag = std::abs(g.apq);
        const double threshold = 1e-15 * std::sqrt(g.app * g.aqq);
        if (mag <= threshold || mag < 1e-300) continue;
        rotated = true;
        ++rotations_done;
        const JacobiParams jp = jacobi_params(g.app, g.aqq, g.apq, mag);
        const cplx spc = std::conj(jp.sp);
        rotate_pair(rp, rq, m, jp.c, spc, jp.sp);
        rotate_pair(pv + p * n, pv + q * n, n, jp.c, spc, jp.sp);
      }
    }
    converged = !rotated;
  }
  if (!converged) throw NumericalError("svd(blocked): one-sided Jacobi did not converge");

  if (obs::metrics_enabled()) {
    obs::counter("linalg.blocked.svd.calls").increment();
    obs::counter("linalg.blocked.svd.sweeps").add(sweeps_done);
    obs::counter("linalg.blocked.svd.rotations").add(rotations_done);
  }
  // Row norms of wt are the singular values; sort descending and transpose
  // the factors back into column-major-of-result form.
  RVec sigma(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0;
    const cplx* row = pw + j * m;
    for (std::size_t i = 0; i < m; ++i) s += std::norm(row[i]);
    sigma[j] = std::sqrt(s);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });

  SvdResult res;
  res.sigma.resize(n);
  res.u = CMat(m, n);
  res.v = CMat(n, n);
  const double smax = sigma.empty() ? 0.0 : sigma[order[0]];
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    res.sigma[j] = sigma[src];
    if (sigma[src] > 1e-14 * std::max(smax, 1.0)) {
      const cplx* wrow = pw + src * m;
      for (std::size_t i = 0; i < m; ++i) res.u(i, j) = wrow[i] / sigma[src];
    }  // else: null direction, U column stays zero (matches reference)
    const cplx* vrow = pv + src * n;
    for (std::size_t i = 0; i < n; ++i) res.v(i, j) = vrow[i];
  }
  return res;
}

// ------------------------------------------------------------ blocked kron
//
// out(i*rb+k, j*cb+l) = a(i,j) * b(k,l): each A entry scales a full B row
// into its output block (scale_row — SIMD complex, bitwise-identical
// product), so every output element gets the same single multiply as the
// inline template and results are bitwise identical across backends and
// SIMD modes.

void blocked_kron(const CMat& a, const CMat& b, CMat& out) {
  if (obs::metrics_enabled()) {
    obs::counter("linalg.blocked.kron.calls").increment();
    obs::counter("linalg.blocked.kron.flops").add(kron_flops(out.size()));
  }
  const std::size_t rb = b.rows(), cb = b.cols(), cols = out.cols();
  const cplx* pb = b.data();
  cplx* po = out.data();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const cplx aij = a(i, j);
      if (aij == cplx{}) continue;  // block stays zero
      for (std::size_t k = 0; k < rb; ++k)
        scale_row(po + (i * rb + k) * cols + j * cb, pb + k * cb, cb, aij);
    }
}

}  // namespace detail
}  // namespace qfc::linalg
