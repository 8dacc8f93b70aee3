#pragma once

/// \file comb_source.hpp
/// Top-level façade: one object representing the integrated quantum
/// frequency comb of the paper, with a factory per pump configuration
/// (= paper section). This is the entry point examples should use.

#include <memory>

#include "qfc/core/four_photon.hpp"
#include "qfc/core/heralded.hpp"
#include "qfc/core/stability.hpp"
#include "qfc/core/timebin_experiment.hpp"
#include "qfc/core/type2_experiment.hpp"

namespace qfc::core {

/// The four pump configurations of the paper.
enum class PumpConfiguration {
  SelfLockedCw,        ///< Sec. II: pure heralded single photons
  CrossPolarized,      ///< Sec. III: type-II SFWM photon pairs
  DoublePulse,         ///< Sec. IV: time-bin entangled pairs
  DoublePulseFourMode, ///< Sec. V: four-photon entangled states
};

/// Integrated quantum frequency comb: the microring device plus the
/// measurement-chain defaults used by the paper's experiments.
class QuantumFrequencyComb {
 public:
  /// Device preset appropriate for the configuration (DESIGN.md §2 S3).
  static QuantumFrequencyComb for_configuration(PumpConfiguration c);

  explicit QuantumFrequencyComb(photonics::MicroringResonator device);

  const photonics::MicroringResonator& device() const noexcept { return device_; }

  /// The comb channel grid around the pump resonance.
  photonics::CombGrid grid(int num_pairs) const;

  /// Experiment factories (each returns a ready-to-run experiment with
  /// paper-matched defaults; the configs can be customized first).
  HeraldedPhotonExperiment heralded(HeraldedConfig cfg = {}) const;
  Type2Experiment type2(Type2Config cfg = {}) const;
  TimebinExperiment timebin(TimebinConfig cfg) const;
  TimebinExperiment timebin_default() const;
  FourPhotonExperiment four_photon(FourPhotonConfig cfg = {}) const;
  StabilityExperiment stability(StabilityConfig cfg = {}) const;

 private:
  photonics::MicroringResonator device_;
};

}  // namespace qfc::core
