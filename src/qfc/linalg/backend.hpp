#pragma once

/// \file backend.hpp
/// The kernel set behind the dense linear algebra every layer above bottoms
/// out in: Schmidt purity in `sfwm`, the qudit CGLMP/MUB stack,
/// `tomo::maximum_likelihood`, and `quantum::measures`. Mat<T>::operator*,
/// kron(), hermitian_eig(), svd() and the spectral matrix functions call the
/// Blocked kernels (`detail::blocked_*`) directly: SIMD micro-kernels,
/// cache-blocked GEMM with a transposed-B micro-kernel, cyclic / round-robin
/// ("chess tournament") Jacobi eig and one-sided Jacobi SVD. Each kernel is
/// one serial code path, and linalg never threads: callers that need
/// parallelism run independent instances (see src/qfc/parallel/README.md).
///
/// The Reference kernels (`detail::reference_*`) are the original
/// hand-rolled single-threaded loops. The library runs only reference_gemm,
/// as blocked_gemm with SIMD off; tests and benches call them
/// directly as the accuracy and speed baseline. See src/qfc/linalg/README.md.

#include <cstdint>

#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix.hpp"
#include "qfc/linalg/svd.hpp"

namespace qfc::linalg {

enum class BackendKind { Reference, Blocked };

/// Options forwarded to the Hermitian eigensolver kernels.
struct EigOptions {
  int max_sweeps = 64;
  bool want_vectors = true;
};

/// The kernel set the library runs: always Blocked. Kept, with no setter,
/// only because the repository benchmark records
/// to_string(default_backend()) in its result envelope.
BackendKind default_backend();

const char* to_string(BackendKind kind);

/// Inert shims: linalg never threads. The setter accepts any value and does
/// nothing; both getters return 1. Kept only because the repository
/// benchmark sets and records them.
void set_backend_threads(unsigned n);
unsigned backend_threads();
unsigned backend_thread_request();

/// SIMD policy of the Blocked backend (see src/qfc/linalg/README.md).
/// Vector micro-kernels (AVX2 on x86-64, runtime-dispatched) are used when
/// the request is on AND the CPU supports them; the scalar fallback is
/// always compiled in. Initial request comes from QFC_LINALG_SIMD
/// ("off"/"0"/"false"/"scalar" disable; anything else, or unset, enables).
/// Rotation/kron kernels replicate the scalar complex arithmetic exactly
/// (mul/addsub, no FMA), so eig and kron are bitwise identical across SIMD
/// modes; the planar-FMA GEMM and the vectorized SVD Gram reductions are
/// relaxed (1e-10 parity across modes).
void set_simd_enabled(bool on);
/// True when the vector path is active (requested AND CPU-supported).
bool simd_enabled();
/// The raw on/off request, ignoring CPU support (for save/restore).
bool simd_request();

namespace detail {

/// Complex Jacobi rotation parameters (c real, sp = sin·phase) for a pivot
/// with diagonal entries app/aqq and off-diagonal apq of magnitude mag > 0.
/// Single shared formula: every Reference and Blocked solver zeroes its
/// pivot with exactly the same arithmetic, which is what their 1e-10
/// parity contract leans on.
struct JacobiParams {
  double c = 1.0;
  cplx sp{0, 0};
};
JacobiParams jacobi_params(double app, double aqq, cplx apq, double mag);

/// Sum of squared magnitudes of strictly off-diagonal elements.
double off_diag_norm2(const CMat& a);

/// Nominal flop count of an m x k by k x n complex product (8mkn). Feeds
/// the `linalg.<backend>.gemm.flops` obs counters.
std::uint64_t gemm_flops(std::size_t m, std::size_t k, std::size_t n);

/// Nominal flop count of a complex kron with `out_elems` output elements
/// (one complex multiply, 6 real flops, per element). Feeds the
/// `linalg.<backend>.kron.flops` obs counters.
std::uint64_t kron_flops(std::size_t out_elems);

/// The checks every public eig entry point runs before dispatch: square,
/// finite and Hermitian to `hermiticity_tol`; throws std::invalid_argument
/// naming `who`.
void validate_eig_input(const CMat& a, double hermiticity_tol, const char* who);

/// Convergence threshold on off_diag_norm2 for an n x n Hermitian matrix of
/// Frobenius norm `scale`.
double jacobi_stop_threshold(double scale, std::size_t n);

// Reference kernels: the original naive loops, kept as the test and bench
// baseline and (reference_gemm) as blocked_gemm with SIMD off. Kernels assume
// pre-validated shapes (the public entry points validate); eig kernels
// symmetrize their input, so round-off-level non-Hermiticity is tolerated.
void reference_gemm(const CMat& a, const CMat& b, CMat& c);
/// herk-style congruence v · diag(d) · v† — the rebuild step of every
/// spectral matrix function. Result is Hermitian to round-off.
CMat reference_scaled_congruence(const CMat& v, const RVec& d);
EigResult reference_hermitian_eig(const CMat& a, const EigOptions& opt);
SvdResult reference_svd(const CMat& a, int max_sweeps);
void reference_kron(const CMat& a, const CMat& b, CMat& out);

// Blocked kernels (blocked_backend.cpp): the ones the library runs. gemm
// and kron write into a caller-provided, zero-initialized, conforming
// output. kron computes each element with the single multiply
// a(i,j)*b(k,l), bitwise equal to reference_kron and the inline loop.
void blocked_gemm(const CMat& a, const CMat& b, CMat& c);
CMat blocked_scaled_congruence(const CMat& v, const RVec& d);
EigResult blocked_hermitian_eig(const CMat& a, const EigOptions& opt);
SvdResult blocked_svd(const CMat& a, int max_sweeps);
void blocked_kron(const CMat& a, const CMat& b, CMat& out);

/// Shared eig finalization: read the (real) diagonal of the rotated matrix,
/// sort descending, permute the accumulated eigenvector columns alongside.
EigResult finalize_eig(const CMat& diagonalized, const CMat& vectors, bool want_vectors);

}  // namespace detail

}  // namespace qfc::linalg
