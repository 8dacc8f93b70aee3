#pragma once

/// \file bell.hpp
/// Bell states in the time-bin encoding |0> = |short>, |1> = |long>, the
/// two-qudit frequency-bin pair states Σ_k c_k |k>|k>, plus the noise models
/// (Werner/isotropic mixing) used to emulate the experimentally observed
/// visibilities and fidelities.

#include "qfc/quantum/state.hpp"

namespace qfc::quantum {

/// (|00> + e^{iφ} |11>)/√2 — the state generated by double-pulse SFWM with
/// pump inter-pulse phase φ (paper Sec. IV).
StateVector bell_phi(double phase_rad = 0.0);

/// Werner-type state: V |Φ(φ)><Φ(φ)| + (1−V) I/4. A two-photon fringe
/// visibility V maps exactly to this mixing weight for time-bin analysis.
DensityMatrix werner_phi(double visibility, double phase_rad = 0.0);

/// Product of n/2 Bell Φ pairs on adjacent qubit pairs (n even): the
/// multi-photon states of paper Sec. V (four-mode -> two Bell pairs).
StateVector bell_product(std::size_t num_pairs, double phase_rad = 0.0);

/// Two-qudit maximally entangled state (1/√d) Σ_k |k>|k>.
StateVector maximally_entangled(std::size_t d);

/// Two-qudit frequency-bin state Σ_k c_k |k>|k> from per-bin pair
/// amplitudes (normalized internally; size sets d).
StateVector from_pair_amplitudes(const CVec& pair_amplitudes);

/// Isotropic-noise model V |ψ><ψ| + (1−V) I/dim for any register target —
/// the standard noise family for Werner and CGLMP studies.
DensityMatrix isotropic_noise(const StateVector& target, double visibility);

}  // namespace qfc::quantum
