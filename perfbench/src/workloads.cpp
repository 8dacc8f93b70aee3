/// \file workloads.cpp
/// The benchmark's three workloads as generated sweep configs, and the
/// physics sanity check of their reports. Why each workload exists, and
/// which layer metric should move which end-to-end metric on it, is in
/// perfbench/README.md.

#include <cmath>
#include <initializer_list>
#include <string>
#include <utility>

#include "bench.hpp"
#include "qfc/sweep/scenario.hpp"

namespace perfbench {

namespace {

using qfc::io::Json;

const Workload kWorkloads[] = {
    // The CI smoke sweep, serial, inner pools at their defaults.
    {"smoke_sweep", 1, 0, 0},
    // One many-user streaming network run; the adapter pins its analysis
    // threads, generation uses the library default.
    {"network_stream", 1, 0, 0},
    // Many small instances fanned out over the sweep pool; inner pools at
    // one thread so sweep workers x inner threads stays within nproc.
    {"param_study", 4, 1, 1},
};

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Scenario seed `k` of sweep `sweep`, a pure function of the workload
/// seed. Shifted into [0, 2^63) because scenario seeds are JSON integers.
std::int64_t derive_seed(std::uint64_t workload_seed, std::size_t sweep, std::size_t k) {
  std::uint64_t x = workload_seed ^ (0xD1B54A32D192ED03ULL * (sweep + 1));
  splitmix64(x);
  x += k;
  return static_cast<std::int64_t>(splitmix64(x) >> 1);
}

bool takes_seed(const char* scenario) {
  const qfc::sweep::Scenario* s = qfc::sweep::ScenarioRegistry::instance().find(scenario);
  if (s == nullptr) return false;
  for (const auto& p : s->params)
    if (std::string_view(p.name) == "seed") return true;
  return false;
}

Json object(std::initializer_list<std::pair<const char*, Json>> members) {
  Json o = Json::make_object();
  for (const auto& [key, value] : members) o.set(key, value);
  return o;
}

Json list(std::initializer_list<Json> items) { return Json::make_array(items); }

Json int_range(int lo, int hi) {
  Json a = Json::make_array();
  for (int v = lo; v <= hi; ++v) a.push_back(v);
  return a;
}

Json double_grid(double start, double step, int count) {
  Json a = Json::make_array();
  for (int i = 0; i < count; ++i) a.push_back(start + step * i);
  return a;
}

/// Builds a sweep config whose scenario seeds all come from the workload
/// seed: a seeded scenario without a seed axis gets a derived base seed,
/// and a seed axis of n values gets n derived seeds.
class ConfigBuilder {
 public:
  ConfigBuilder(int workers, std::uint64_t seed) : seed_(seed) {
    config_.set("workers", workers);
    config_.set("sweeps", Json::make_array());
  }

  void add(const char* scenario, Json base,
           std::initializer_list<std::pair<const char*, Json>> axes,
           std::size_t seed_axis_values = 0) {
    Json axis_list = Json::make_array();
    for (const auto& [param, values] : axes)
      axis_list.push_back(object({{"param", param}, {"values", values}}));
    if (takes_seed(scenario)) {
      if (seed_axis_values > 0) {
        Json seeds = Json::make_array();
        for (std::size_t k = 1; k <= seed_axis_values; ++k)
          seeds.push_back(derive_seed(seed_, sweeps_.array_items().size(), k));
        axis_list.push_back(object({{"param", "seed"}, {"values", seeds}}));
      } else {
        base.set("seed", derive_seed(seed_, sweeps_.array_items().size(), 0));
      }
    }
    Json sweep = object({{"scenario", scenario}, {"base", std::move(base)}});
    if (!axis_list.array_items().empty()) sweep.set("axes", std::move(axis_list));
    sweeps_.push_back(std::move(sweep));
  }

  Json take() {
    config_.set("sweeps", std::move(sweeps_));
    return std::move(config_);
  }

 private:
  std::uint64_t seed_;
  Json config_ = Json::make_object();
  Json sweeps_ = Json::make_array();
};

/// examples/sweep_smoke.json (33 instances over all eight scenarios) with
/// every seed re-derived, run serially.
void smoke_sweep(ConfigBuilder& b) {
  b.add("qkd_link_budget", object({{"num_channel_pairs", 3}, {"dark_rate_hz", 500.0}}),
        {{"distance_km", double_grid(0.0, 10.0, 7)},
         {"detection_efficiency_scale", list({1.0, 0.7})}});
  b.add("qudit_source", Json::make_object(), {{"dimension", int_range(2, 8)}});
  b.add("stability_comparison",
        object({{"observation_days", 0.5}, {"sample_interval_s", 600.0}}), {}, 3);
  b.add("heralded_channel_table",
        object({{"duration_s", 0.1}, {"num_channel_pairs", 2}}),
        {{"pump_power_w", list({0.008, 0.015})}});
  b.add("timebin_chsh",
        object({{"channel", 1}, {"fringe_points", 12}, {"num_channel_pairs", 2}}), {}, 2);
  b.add("type2_car", object({{"duration_s", 0.5}}),
        {{"pump_power_total_w", list({0.002, 0.008})}});
  b.add("qkd_network",
        object({{"num_users", 6},
                {"max_distance_km", 30.0},
                {"duration_s", 0.05},
                {"stream_window_s", 0.025}}),
        {}, 2);
  b.add("four_photon",
        object({{"fringe_points", 8},
                {"fourfold_events_per_point", 50.0},
                {"tomo_shots_per_setting", 60.0}}),
        {});
}

/// One 48-user network over 0-40 km: a 0.4 s run in 0.02 s stream windows.
void network_stream(ConfigBuilder& b) {
  b.add("qkd_network",
        object({{"num_users", 48},
                {"max_distance_km", 40.0},
                {"duration_s", 0.4},
                {"stream_window_s", 0.02}}),
        {});
}

/// A device-design study: many small instances of six scenarios.
void param_study(ConfigBuilder& b) {
  b.add("heralded_channel_table", object({{"duration_s", 20.0}}),
        {{"pump_power_w", double_grid(0.003, 0.003, 10)},
         {"num_channel_pairs", int_range(1, 5)}});
  b.add("qkd_link_budget", Json::make_object(),
        {{"distance_km", double_grid(0.0, 2.0, 50)},
         {"detection_efficiency_scale", list({0.5, 0.625, 0.75, 0.875, 1.0})},
         {"num_channel_pairs", list({1, 3, 5, 8})}});
  b.add("stability_comparison",
        object({{"sample_interval_s", 600.0}, {"include_series", true}}), {}, 16);
  b.add("qudit_source", Json::make_object(), {{"dimension", int_range(2, 16)}});
  b.add("timebin_chsh", object({{"fringe_points", 12}}), {}, 4);
  b.add("type2_car", Json::make_object(),
        {{"pump_power_total_w", list({0.002, 0.004, 0.008})}});
}

// ---- report checks

double number(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  if (v == nullptr || !v->is_number()) return std::nan("");
  return v->number_value();
}

bool in(double v, double lo, double hi) { return v >= lo && v <= hi; }

/// Empty when the scenario result satisfies its invariants.
std::string check_result(const std::string& scenario, const Json& params,
                         const Json& result) {
  const auto items = [&](std::string_view key) -> const Json::Array& {
    static const Json::Array kEmpty;
    const Json* v = result.find(key);
    return v != nullptr && v->is_array() ? v->array_items() : kEmpty;
  };
  const auto param = [&](std::string_view key, double fallback) {
    const double v = number(params, key);
    return std::isnan(v) ? fallback : v;
  };
  if (scenario == "qkd_link_budget") {
    if (items("channels").size() != static_cast<std::size_t>(param("num_channel_pairs", 5)))
      return "channel count differs from num_channel_pairs";
    for (const Json& c : items("channels"))
      if (!in(number(c, "qber"), 0.0, 0.5)) return "QBER outside [0, 0.5]";
  } else if (scenario == "qudit_source") {
    const double d = number(result, "dimension");
    double total = 0;
    for (const Json& p : items("bin_probabilities")) total += p.number_value();
    if (std::abs(total - 1.0) > 1e-9) return "bin probabilities do not sum to 1";
    if (!in(number(result, "schmidt_number"), 1.0 - 1e-9, d + 1e-9))
      return "Schmidt number outside [1, d]";
    if (!in(number(result, "entanglement_entropy_bits"), 0.0, std::log2(d) + 1e-9))
      return "entanglement entropy outside [0, log2 d]";
  } else if (scenario == "stability_comparison") {
    const Json* self = result.find("self_locked");
    const Json* ext = result.find("external");
    if (self == nullptr || ext == nullptr ||
        !(number(*self, "rms_fluctuation_percent") < number(*ext, "rms_fluctuation_percent")))
      return "self-locked pumping is not more stable than external pumping";
  } else if (scenario == "heralded_channel_table") {
    if (items("channels").size() != static_cast<std::size_t>(param("num_channel_pairs", 5)))
      return "channel count differs from num_channel_pairs";
    for (const Json& c : items("channels"))
      if (!(number(c, "singles_signal_hz") > 0)) return "no signal singles";
  } else if (scenario == "timebin_chsh") {
    if (items("channels").empty()) return "no channels";
    for (const Json& c : items("channels")) {
      const Json* chsh = c.find("chsh");
      if (chsh == nullptr || !in(number(*chsh, "s"), 2.0, 2.0 * std::sqrt(2.0) + 0.1))
        return "CHSH S outside (2, 2 sqrt 2]";
    }
  } else if (scenario == "type2_car") {
    if (!(number(result, "opo_threshold_w") > 0)) return "OPO threshold not positive";
  } else if (scenario == "qkd_network") {
    if (items("users").size() != static_cast<std::size_t>(param("num_users", 0)))
      return "user count differs from num_users";
  } else if (scenario == "four_photon") {
    for (const char* key : {"bell_fidelity_a", "bell_fidelity_b", "four_photon_fidelity",
                            "four_photon_state_fidelity"})
      if (!in(number(result, key), 0.0, 1.0 + 1e-9)) return std::string(key) + " outside [0, 1]";
  }
  return {};
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

Json make_config(const Workload& w, std::uint64_t seed) {
  ConfigBuilder b(w.sweep_workers, seed);
  const std::string_view name = w.name;
  if (name == "smoke_sweep") smoke_sweep(b);
  if (name == "network_stream") network_stream(b);
  if (name == "param_study") param_study(b);
  return b.take();
}

std::vector<std::string> check_report(const Json& report) {
  std::vector<std::string> problems;
  const Json* results = report.find("results");
  if (results == nullptr || !results->is_array()) return {"report has no results array"};
  for (const Json& entry : results->array_items()) {
    const Json* ok = entry.find("ok");
    if (ok == nullptr || !ok->bool_value()) continue;  // counted as a failed instance
    const std::string problem = check_result(entry.find("scenario")->string_value(),
                                             *entry.find("params"), *entry.find("result"));
    if (!problem.empty())
      problems.push_back("instance " + std::to_string(entry.find("index")->int_value()) +
                         " (" + entry.find("scenario")->string_value() + "): " + problem);
  }
  return problems;
}

}  // namespace perfbench
