#pragma once

/// \file tomography.hpp
/// Quantum state tomography of time-bin qubit registers (paper Sec. V):
/// measurement-setting generation (each qubit in Z, X or Y — arrival time
/// or interferometer phase 0 / π/2), count simulation, linear-inversion
/// and maximum-likelihood (iterative RρR) reconstruction.

#include <cstdint>
#include <string>
#include <vector>

#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::tomo {

/// One measurement setting: a basis label per qubit, e.g. "XY" for a
/// two-qubit setting measuring X on qubit 0 and Y on qubit 1.
struct MeasurementSetting {
  std::string bases;  ///< characters from {X, Y, Z}

  std::size_t num_qubits() const { return bases.size(); }
};

/// All 3^n settings for n qubits, in lexicographic order (X < Y < Z).
std::vector<MeasurementSetting> all_settings(std::size_t num_qubits);

/// Projector onto outcome o (bitmask, bit q = 1 means the −1 eigenstate on
/// qubit q, with qubit 0 the most significant bit) of the given setting.
linalg::CMat outcome_projector(const MeasurementSetting& s, std::size_t outcome);

/// The unit vector |v⟩ of that outcome, outcome_projector(s, o) = |v⟩⟨v|:
/// the Kronecker product of the single-qubit eigenvectors, qubit 0 first.
linalg::CVec outcome_vector(const MeasurementSetting& s, std::size_t outcome);

/// Counts observed for one setting: counts[outcome] for all 2^n outcomes.
struct SettingCounts {
  MeasurementSetting setting;
  std::vector<std::uint64_t> counts;

  std::uint64_t total() const;
};

struct NoiseKnobs {
  /// RMS analyzer-phase error applied to X/Y bases per setting (systematic
  /// within a setting, random across settings), radians.
  double analyzer_phase_rms_rad = 0.0;
  /// Flat accidental counts added to every outcome of every setting.
  double accidentals_per_outcome = 0.0;
};

/// Simulate tomography data: for each setting, Poisson counts around
/// shots_per_setting x outcome probability (+ noise knobs). rho must be a
/// qubit register (std::invalid_argument otherwise).
std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           double shots_per_setting,
                                           const NoiseKnobs& noise, rng::Xoshiro256& g);

/// Linear-inversion estimate: ρ = (1/2^n) Σ_s <σ_s> σ_s over all 4^n Pauli
/// strings, with each expectation estimated from a compatible setting
/// (I components marginalized). The result is Hermitian/unit-trace but can
/// be non-physical; project with linalg::project_to_density_matrix or feed
/// it to MLE.
linalg::CMat linear_inversion(const std::vector<SettingCounts>& data);

struct MleOptions {
  int max_iterations = 500;
  double convergence_tol = 1e-10;  ///< Frobenius norm of ρ update
};

struct MleResult {
  quantum::DensityMatrix rho;
  int iterations = 0;
  bool converged = false;
  double log_likelihood = 0;
};

/// Maximum-likelihood reconstruction via the iterative RρR algorithm
/// (Lvovsky 2004), seeded from the projected linear-inversion estimate.
MleResult maximum_likelihood(const std::vector<SettingCounts>& data,
                             const MleOptions& opts = {});

// ------------------------------------------------------------------------
// Dimension-agnostic RρR core, shared by the qubit path above and by the
// frequency-bin qudit MUB tomography in qfc::qudit.

/// One measured rank-1 projector |v⟩⟨v| with its observed count. Every
/// Pauli and MUB outcome is a Kronecker product of single-particle basis
/// vectors, so the core never needs the dense D x D projector.
struct ProjectorTerm {
  linalg::CVec vector;  ///< |v⟩, length D
  double count = 0;
};

struct RrrResult {
  linalg::CMat rho;  ///< physical (Hermitian, unit-trace, PSD) estimate
  int iterations = 0;
  bool converged = false;
  double log_likelihood = 0;
};

/// Iterative RρR maximum-likelihood reconstruction over an arbitrary list
/// of rank-1 projector/count terms in any dimension D. `seed` must be a
/// Hermitian unit-trace matrix of the right dimension (it is mixed with a
/// sliver of identity internally so no term starts at zero probability).
/// The K terms with count > 0 are packed once into A = V† (K x D) and V
/// (D x K); each iteration is then p_k = ⟨v_k|ρ|v_k⟩ from W = A·ρ and
/// R = V·diag(n_k/(N p_k))·A — two K x D x D GEMMs plus O(KD) — followed by
/// the D x D products R·ρ·R. Throws std::invalid_argument naming
/// rrr_reconstruct for a non-finite or non-square seed, a vector of the
/// wrong length or with a non-finite entry, a negative or non-finite count,
/// no counts at all, a negative max_iterations or a NaN/negative
/// convergence_tol.
RrrResult rrr_reconstruct(const std::vector<ProjectorTerm>& terms,
                          const linalg::CMat& seed, const MleOptions& opts = {});

/// Batch RρR: element i equals rrr_reconstruct(problems[i], seeds[i], opts)
/// bitwise, but independent reconstructions fan out across the linalg
/// worker pool (one task per problem, fixed assignment — see the batch
/// contract in src/qfc/linalg/README.md). The R·ρ·R products *inside* one
/// iteration are data-dependent and stay sequential; this parallelizes
/// across problems, the shape of a tomography sweep.
std::vector<RrrResult> rrr_reconstruct_batch(
    const std::vector<std::vector<ProjectorTerm>>& problems,
    const std::vector<linalg::CMat>& seeds, const MleOptions& opts = {});

}  // namespace qfc::tomo
