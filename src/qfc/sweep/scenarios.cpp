/// \file scenarios.cpp
/// The registry entries: one adapter per core façade. Each adapter reads
/// the façade's Config structs from a flat JSON parameter object through
/// their field tables (same names, same defaults, same ranges), runs the
/// experiment, and returns the result through io::to_json(). Seeds are ordinary
/// parameters, so a scenario instance is a pure function of its parameter
/// object.

#include "qfc/sweep/scenario.hpp"

#include <algorithm>
#include <complex>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/qudit/freq_bin_source.hpp"

namespace qfc::sweep {

namespace {

/// The parameter list of a scenario: the tables of the structs it reads,
/// in order.
template <class... Structs>
std::vector<ParamSpec> specs() {
  std::vector<ParamSpec> out;
  (std::ranges::move(io::field_specs<Structs>(), std::back_inserter(out)), ...);
  return out;
}

/// `value` with every field of its table that `p` holds read from `p`.
template <class T>
T read(const io::JsonView& p, T value = {}) {
  io::read_fields(p, value);
  return value;
}

// ---- adapter arguments: what an adapter reads besides Config members,
//      declared in the same table form.

/// The pump power TimebinConfig::make_default_pump() builds the pump from.
struct DoublePulseArgs {
  double average_power_w = 250e-3;
  QFC_FIELDS(DoublePulseArgs,
      QFC_FIELD(average_power_w, io::kNonNegative, "average double-pulse pump power [W]"))
};

struct ChshArgs {
  int channel = 0;
  QFC_FIELDS(ChshArgs,
      QFC_FIELD(channel, io::between(0, 64), "channel pair to run (0 = all pairs)"))
};

struct StabilityArgs {
  bool include_series = false;
  QFC_FIELDS(StabilityArgs,
      QFC_FIELD(include_series, {}, "embed the full time series in the result"))
};

struct LinkBudgetArgs {
  double distance_km = 0.0;
  QFC_FIELDS(LinkBudgetArgs,
      QFC_FIELD(distance_km, io::kNonNegative, "total Alice-Bob separation [km]"))
};

/// QkdNetworkConfig::uniform()'s inputs and the run duration.
struct NetworkArgs {
  int num_users = 0;
  double max_distance_km = 50.0;
  double duration_s = 1.0;
  QFC_FIELDS(NetworkArgs,
      QFC_FIELD(num_users, io::between(1, 100000), "subscribers on the comb", true),
      QFC_FIELD(max_distance_km, io::kNonNegative, "links spread over [0, max] [km]"),
      QFC_FIELD(duration_s, io::kPositive, "shared run duration [s]"))
};

/// The qudit bins are the CW comb's first `dimension` pairs, so the
/// dimension sets HeraldedConfig::num_channel_pairs and of that table only
/// the pump power stays a free knob.
struct QuditArgs {
  int dimension = 0;
  double pump_power_w = core::HeraldedConfig{}.pump_power_w;
  QFC_FIELDS(QuditArgs,
      QFC_FIELD(dimension, io::between(2, 64), "qudit dimension d (comb pairs 1..d)", true),
      QFC_FIELD(pump_power_w, io::kPositive, "CW pump power at the ring [W]"))
};

}  // namespace

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry registry;
  return registry;
}

const Scenario* ScenarioRegistry::find(std::string_view name) const noexcept {
  for (const Scenario& s : scenarios_)
    if (name == s.name) return &s;
  return nullptr;
}

void ScenarioRegistry::add(const char* name, const char* description,
                           std::vector<ParamSpec> params,
                           std::function<io::Json(const io::JsonView&)> run) {
  Scenario s;
  s.name = name;
  s.description = description;
  s.params = std::move(params);
  // Wrap with the unknown-key guard so every adapter is strict for free
  // and the ParamSpec list stays the single source of truth.
  std::vector<std::string_view> keys;
  for (const ParamSpec& ps : s.params) keys.push_back(ps.name);
  s.run = [keys = std::move(keys), inner = std::move(run)](const io::JsonView& p) {
    p.require_keys_among(keys);
    return inner(p);
  };
  scenarios_.push_back(std::move(s));
}

ScenarioRegistry::ScenarioRegistry() {
  using core::PumpConfiguration;
  using core::QuantumFrequencyComb;

  // ---- Sec. II: heralded single photons (self-locked CW pump)
  add("heralded_channel_table",
      "Per-channel CAR / pair-rate table of the CW-pumped heralded source",
      specs<core::HeraldedConfig>(), [](const io::JsonView& p) {
        auto cfg = read<core::HeraldedConfig>(p);
        cfg.engine_threads = 1;  // sweep workers own the parallelism
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
        auto exp = comb.heralded(cfg);
        return io::Json::make_object({{"channels", io::to_json(exp.run_channel_table())}});
      });

  // ---- Sec. III: type-II pairs (cross-polarized bichromatic pump)
  add("type2_car",
      "Cross-polarized coincidence measurement and OPO threshold of the "
      "type-II source",
      specs<core::Type2Config>(), [](const io::JsonView& p) {
        auto comb =
            QuantumFrequencyComb::for_configuration(PumpConfiguration::CrossPolarized);
        auto exp = comb.type2(read<core::Type2Config>(p));
        return io::Json::make_object(
            {{"car", io::to_json(exp.run_car_measurement())},
             {"opo_threshold_w", exp.opo_threshold_w()},
             {"stimulated_suppression_db", exp.stimulated_suppression_db()}});
      });

  // ---- Sec. IV: time-bin entanglement (double-pulse pump)
  add("timebin_chsh",
      "Quantum-interference fringe and CHSH test on one or all comb "
      "channel pairs",
      specs<ChshArgs, DoublePulseArgs, core::TimebinConfig>(), [](const io::JsonView& p) {
        const auto args = read<ChshArgs>(p);
        const auto pump = read<DoublePulseArgs>(p);
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
        auto exp = comb.timebin(read<core::TimebinConfig>(
            p, {.pump = core::TimebinConfig::make_default_pump(comb.device(),
                                                               pump.average_power_w)}));
        const int num_pairs = exp.config().num_channel_pairs;
        if (args.channel > num_pairs)
          p.at("channel").fail("must be <= num_channel_pairs (" +
                               std::to_string(num_pairs) + ")");
        return io::Json::make_object(
            {{"channels", io::to_json(args.channel == 0
                                          ? exp.run_all_channels()
                                          : std::vector{exp.run_channel(args.channel)})}});
      });

  // ---- Sec. V: four-photon states (double-pulse pump, four modes)
  add("four_photon",
      "Four-photon interference fringe and tomographic fidelities",
      specs<core::FourPhotonConfig>(), [](const io::JsonView& p) {
        auto comb = QuantumFrequencyComb::for_configuration(
            PumpConfiguration::DoublePulseFourMode);
        return io::to_json(comb.four_photon(read<core::FourPhotonConfig>(p)).run());
      });

  // ---- Sec. II stability claim
  add("stability_comparison",
      "Self-locked vs externally pumped long-term pair-rate stability",
      specs<core::StabilityConfig, StabilityArgs>(), [](const io::JsonView& p) {
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
        const auto result = comb.stability(read<core::StabilityConfig>(p)).run();
        io::Json out = io::to_json(result);
        if (read<StabilityArgs>(p).include_series) {
          // The series follow each trace's summary keys.
          const auto with_series = [](const core::StabilityTrace& trace) {
            io::Json j = io::to_json(trace);
            j.set("time_s", io::to_json(trace.time_s));
            j.set("relative_rate", io::to_json(trace.relative_rate));
            return j;
          };
          out.set("self_locked", with_series(result.self_locked));
          out.set("external", with_series(result.external));
        }
        return out;
      });

  // ---- QKD application: analytic multiplexed link budget
  add("qkd_link_budget",
      "Analytic BBM92 link budget over every comb channel pair at one "
      "Alice-Bob distance",
      specs<LinkBudgetArgs, core::UserEndpointParams, DoublePulseArgs,
            core::TimebinConfig>(),
      [](const io::JsonView& p) {
        const double distance_km = read<LinkBudgetArgs>(p).distance_km;
        const auto pump = read<DoublePulseArgs>(p);
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
        auto exp = comb.timebin(read<core::TimebinConfig>(
            p, {.pump = core::TimebinConfig::make_default_pump(comb.device(),
                                                               pump.average_power_w)}));
        const core::MultiplexedQkdLink link(exp, read<core::UserEndpointParams>(p));
        return io::Json::make_object(
            {{"distance_km", distance_km},
             {"channels", io::to_json(link.all_channels(distance_km))},
             {"aggregate_key_rate_bps", link.aggregate_key_rate_bps(distance_km)}});
      });

  // ---- QKD application: many-user shared-engine network run
  add("qkd_network",
      "Monte-Carlo many-user QKD network from one shared streaming engine run",
      specs<NetworkArgs, core::QkdNetworkConfig, core::UserEndpointParams>(),
      [](const io::JsonView& p) {
        const auto args = read<NetworkArgs>(p);
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
        auto exp = comb.timebin_default();
        auto cfg = read<core::QkdNetworkConfig>(
            p, core::QkdNetworkConfig::uniform(static_cast<std::size_t>(args.num_users),
                                               args.max_distance_km,
                                               read<core::UserEndpointParams>(p)));
        const core::QkdNetwork network(exp, cfg);
        return io::to_json(network.run(args.duration_s));
      });

  // ---- qudit application: frequency-bin entangled pairs
  add("qudit_source",
      "Frequency-bin qudit pairs from the CW comb: entanglement measures "
      "and procrustean flattening cost",
      specs<QuditArgs>(), [](const io::JsonView& p) {
        const auto args = read<QuditArgs>(p);
        const auto dimension = static_cast<std::size_t>(args.dimension);
        core::HeraldedConfig cfg;
        cfg.pump_power_w = args.pump_power_w;
        cfg.num_channel_pairs = args.dimension;
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
        auto exp = comb.heralded(cfg);
        const auto source = qudit::FreqBinSource::from_cw_source(exp.source(), dimension);
        io::Json probabilities = io::Json::make_array();
        for (const auto& amplitude : source.bin_amplitudes())
          probabilities.push_back(std::norm(amplitude));
        return io::Json::make_object(
            {{"dimension", dimension},
             {"bin_probabilities", std::move(probabilities)},
             {"schmidt_number", source.schmidt_number()},
             {"entanglement_entropy_bits", source.entanglement_entropy_bits()},
             {"flattening_efficiency", source.shaping_efficiency(source.flattening_mask())}});
      });
}

}  // namespace qfc::sweep
