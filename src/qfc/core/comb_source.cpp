#include "qfc/core/comb_source.hpp"

#include "qfc/photonics/device_presets.hpp"

namespace qfc::core {

QuantumFrequencyComb QuantumFrequencyComb::for_configuration(PumpConfiguration c) {
  switch (c) {
    case PumpConfiguration::SelfLockedCw:
      return QuantumFrequencyComb(photonics::heralded_source_device());
    case PumpConfiguration::CrossPolarized:
      return QuantumFrequencyComb(photonics::type2_device());
    case PumpConfiguration::DoublePulse:
    case PumpConfiguration::DoublePulseFourMode:
      return QuantumFrequencyComb(photonics::entanglement_device());
  }
  return QuantumFrequencyComb(photonics::heralded_source_device());
}

QuantumFrequencyComb::QuantumFrequencyComb(photonics::MicroringResonator device)
    : device_(device) {}

photonics::CombGrid QuantumFrequencyComb::grid(int num_pairs) const {
  const double pump = photonics::pump_resonance_hz(device_);
  return photonics::CombGrid(
      pump, device_.fsr_hz(pump, photonics::Polarization::TE), num_pairs);
}

HeraldedPhotonExperiment QuantumFrequencyComb::heralded(HeraldedConfig cfg) const {
  return HeraldedPhotonExperiment(device_, cfg);
}

Type2Experiment QuantumFrequencyComb::type2(Type2Config cfg) const {
  return Type2Experiment(device_, cfg);
}

TimebinExperiment QuantumFrequencyComb::timebin(TimebinConfig cfg) const {
  return TimebinExperiment(device_, cfg);
}

TimebinExperiment QuantumFrequencyComb::timebin_default() const {
  TimebinConfig cfg;
  cfg.pump = TimebinConfig::make_default_pump(device_);
  return TimebinExperiment(device_, cfg);
}

FourPhotonExperiment QuantumFrequencyComb::four_photon(FourPhotonConfig cfg) const {
  TimebinConfig tcfg;
  tcfg.pump = TimebinConfig::make_default_pump(device_);
  return FourPhotonExperiment(device_, tcfg, cfg);
}

StabilityExperiment QuantumFrequencyComb::stability(StabilityConfig cfg) const {
  return StabilityExperiment(device_, cfg);
}

}  // namespace qfc::core
