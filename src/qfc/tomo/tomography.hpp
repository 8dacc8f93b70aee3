#pragma once

/// \file tomography.hpp
/// Product-basis quantum state tomography: the one stack behind qubit Pauli
/// tomography of time-bin registers (paper Sec. V: each qubit in Z, X or Y —
/// arrival time or interferometer phase 0 / π/2) and frequency-bin qudit
/// MUB tomography (qfc::qudit, mub.hpp). A setting picks one basis per
/// particle from a basis set, and every outcome is the Kronecker product of
/// one basis column per particle, so it is rank 1. The two paths share the
/// settings/counts type, the outcome builder, the Poisson count loop, the
/// data check, the linear inversion (the dual frame of a product of
/// complete MUB sets, for any number of particles) and the
/// maximum-likelihood solver it seeds, an accelerated projected gradient
/// that stops at a certified likelihood gap; they differ only in the basis
/// set and the qubit analyzer-phase noise. One product-basis kernel serves
/// the inversion and the solver: a tensor over the per-particle (basis,
/// outcome) index, contracted one particle at a time with a d x d matrix
/// per index, so no D x D matrix per outcome is ever built.
/// Every simulated analyzer measures the same way: outcome_probabilities
/// is the one Born rule, ⟨v|ρ|v⟩ for each outcome vector |v⟩, behind the
/// tomography counts, timebin::measure_chsh and timebin::correlation, both
/// time-bin fringes (timebin::simulate_fringe) and qudit::measure_cglmp.

#include <cstdint>
#include <functional>
#include <vector>

#include "qfc/io/fields.hpp"
#include "qfc/quantum/state.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::tomo {

/// Single-particle bases: element [b] is a d x d matrix whose column k is
/// the vector of outcome k in basis b.
using BasisSet = std::vector<linalg::CMat>;

/// Counts observed in one setting.
struct SettingCounts {
  std::vector<std::size_t> bases;     ///< basis index per particle
  std::vector<std::uint64_t> counts;  ///< all d^n outcomes, particle 0 slowest

  std::uint64_t total() const;
};

/// The matrices one setting measures, set[setting[q]] for particle q.
std::vector<linalg::CMat> setting_bases(const BasisSet& set,
                                        const std::vector<std::size_t>& setting);

/// The unit vector |v⟩ of outcome `outcome` (mixed radix, particle 0 the
/// most significant digit): the Kronecker product of column (digit q) of
/// bases[q], particle 0 first. std::out_of_range past the last outcome.
linalg::CVec outcome_vector(const std::vector<linalg::CMat>& bases, std::size_t outcome);

/// The Born probability ⟨v|ρ|v⟩, clamped to [0, 1], of every outcome of one
/// setting that measures particle q in bases[q], with |v⟩ = outcome_vector
/// and outcomes in its order; no D x D matrix is built. Throws
/// std::invalid_argument unless bases has one d_q x d_q matrix per particle
/// of rho.
std::vector<double> outcome_probabilities(const quantum::DensityMatrix& rho,
                                          const std::vector<linalg::CMat>& bases);

/// Poisson counts of every outcome of one setting, around shots x
/// probability + accidentals_per_outcome, drawn in outcome order: the one
/// count primitive of tomography and the CHSH and CGLMP tests. Throws
/// std::invalid_argument for shots not finite and > 0, an
/// accidentals_per_outcome not finite and >= 0, or bases that do not match
/// rho (as outcome_probabilities).
std::vector<std::uint64_t> sample_outcome_counts(const quantum::DensityMatrix& rho,
                                                 const std::vector<linalg::CMat>& bases,
                                                 double shots, double accidentals_per_outcome,
                                                 rng::Xoshiro256& g);

/// The matrices a setting actually measures, when they are not the nominal
/// setting_bases (e.g. an analyzer with phase errors).
using Analyzer =
    std::function<std::vector<linalg::CMat>(const std::vector<std::size_t>& setting)>;

/// Simulate a complete product-basis measurement: for each of the |set|^n
/// settings (mixed radix, particle 0 slowest), sample_outcome_counts of the
/// bases it measures. `analyzer`, if set, is called once per setting,
/// before its counts are drawn.
std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           const BasisSet& set, double shots_per_setting,
                                           double accidentals_per_outcome,
                                           rng::Xoshiro256& g, const Analyzer& analyzer = {});

/// Number of particles n of `data`, after checking that `set` is not empty,
/// that every basis of it is a finite d x d matrix and that `data` holds
/// each of the |set|^n settings exactly once, each with d^n counts
/// (std::invalid_argument otherwise).
std::size_t checked_particles(const std::vector<SettingCounts>& data, const BasisSet& set);

/// Linear-inversion estimate from complete product-basis data over a set of
/// d + 1 mutually unbiased bases: the canonical dual frame
///   ρ̂ = Σ_s Σ_o f(o|s) ⊗_q (|v_{b_q,o_q}⟩⟨v_{b_q,o_q}| − I/(d+1)),
/// with f(o|s) the outcome frequencies of setting s (a setting with no
/// counts adds nothing). Each particle's sum is the 2-design identity
/// Σ_{b,k} p(k|b) |v_{b,k}⟩⟨v_{b,k}| = ρ + I, so ρ̂ is unbiased, Hermitian
/// and, with counts in every setting, unit trace, but it can be
/// non-physical; project with linalg::project_to_density_matrix or use
/// maximum_likelihood. It contracts the frequency tensor one particle at a
/// time, with no D x D matrix per outcome. Throws std::invalid_argument for
/// data that fails checked_particles or a set that does not have d + 1
/// bases (it does not check that they are unbiased).
linalg::CMat linear_inversion(const std::vector<SettingCounts>& data, const BasisSet& set);

struct MleOptions {
  /// Cap on accepted solver steps; the estimate at the cap is returned with
  /// converged = false.
  int max_iterations = 500;
  /// Stop once the certified likelihood gap (MleResult::likelihood_gap) is
  /// at most this: a bound on how far the log-likelihood per count is below
  /// its maximum.
  double convergence_tol = 1e-8;
};

/// A maximum-likelihood estimate, from either path.
struct MleResult {
  quantum::DensityMatrix rho;  ///< physical: Hermitian, unit trace, PSD
  int iterations = 0;          ///< accepted solver steps
  bool converged = false;      ///< likelihood_gap <= convergence_tol
  double log_likelihood = 0;   ///< Σ_k n_k log p_k over outcomes with counts
  /// Certificate at rho: log λ_max(R) with R = Σ_k f_k/p_k |v_k⟩⟨v_k| and
  /// f_k = n_k/N, an upper bound on (L_max − log_likelihood)/N.
  double likelihood_gap = 0;
};

/// Maximum-likelihood reconstruction from complete product-basis data, by
/// accelerated projected gradient with restarts (Shang, Zhang and Ng, PRA
/// 95, 062336, 2017), the solver both paths share. It seeds itself from
/// linear_inversion(data, set), projected onto the density matrices and
/// mixed with a sliver of identity, so no outcome starts at zero
/// probability; `set` must therefore be a complete MUB set. The
/// likelihood reuses linear_inversion's contraction: the gradient
/// R = Σ_k (n_k/(N p_k)) |v_k⟩⟨v_k| contracts the weights n_k/(N p_k) of
/// the outcomes with counts (0 for the rest) with the per-particle
/// projectors |v⟩⟨v|, and the probabilities p_k = ⟨v_k|Δ|v_k⟩ of a trial
/// step Δ are the adjoint contraction of Δ's entries. For n particles of
/// dimension d, each costs at most n·(d(d+1))^n·d² multiply-adds, where a
/// dense pass over the outcomes would cost K·D² (D = d^n). Each step takes
/// the gradient at the extrapolated point (reused when that is the last
/// accepted point), one probability evaluation and one D x D
/// eigendecomposition (the projection) per backtracking trial, and R at
/// the accepted point; the certificate's eigenvalue solve waits while
/// ⟨u|R|u⟩, u the last certificate's top eigenvector, already rules
/// convergence out. Stops once likelihood_gap <= convergence_tol or after
/// max_iterations steps.
/// Throws std::invalid_argument for data or a set that linear_inversion
/// rejects, and, naming maximum_likelihood, for no counts at all, a
/// negative max_iterations or a NaN/negative convergence_tol.
MleResult maximum_likelihood(const std::vector<SettingCounts>& data, const BasisSet& set,
                             const MleOptions& opts = {});

// ------------------------------------------------------------------------
// Qubit Pauli path.

/// The qubit basis set {X, Y, Z}, in that order; column 0 is the +1
/// eigenvector. X and Y are the interferometer at phase 0 and π/2, both
/// shifted by `phase_error_rad`; Z is the arrival time.
BasisSet pauli_bases(double phase_error_rad = 0.0);

struct NoiseKnobs {
  /// RMS analyzer-phase error applied to X/Y bases per setting (systematic
  /// within a setting, random across settings), radians.
  double analyzer_phase_rms_rad = 0.0;
  /// Flat accidental counts added to every outcome of every setting.
  double accidentals_per_outcome = 0.0;

  QFC_FIELDS(NoiseKnobs,
      QFC_FIELD(analyzer_phase_rms_rad, io::kNonNegative, "analyzer phase error RMS [rad]"),
      QFC_FIELD(accidentals_per_outcome, io::kNonNegative, "accidentals per outcome"))
};

/// Simulate Pauli tomography data: all 3^n settings in lexicographic order
/// (X < Y < Z), each qubit's analyzer phase drawn per setting from `noise`.
/// rho must be a qubit register, and `noise` pass its table
/// (std::invalid_argument("NoiseKnobs.<knob>: must be >= 0") otherwise).
std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           double shots_per_setting,
                                           const NoiseKnobs& noise, rng::Xoshiro256& g);

/// Maximum likelihood over the Pauli set: maximum_likelihood(data,
/// pauli_bases(), opts).
MleResult maximum_likelihood(const std::vector<SettingCounts>& data,
                             const MleOptions& opts = {});

}  // namespace qfc::tomo
