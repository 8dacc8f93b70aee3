// Tests for the config/serialization layer (qfc::io JSON) and the
// scenario-sweep runner (qfc::sweep): round-trips, path-qualified config
// errors, axis expansion, worker-count bitwise parity, failure isolation,
// and adapter-vs-façade parity for every registered experiment.

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/hbt.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/io/fields.hpp"
#include "qfc/io/json.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/qudit/freq_bin_source.hpp"
#include "qfc/sweep/scenario.hpp"
#include "qfc/sweep/sweep.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using namespace qfc;
using io::Json;
using io::JsonError;
using io::JsonView;

// --------------------------------------------------------------- io::Json

TEST(Json, ParseDumpRoundTripPreservesValuesAndOrder) {
  const std::string text =
      R"({"b":true,"a":null,"i":-42,"d":0.1,"s":"héllo \"x\"","arr":[1,2.5,"three",false],"o":{"nested":[{"k":1}]}})";
  const Json v = Json::parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(Json::parse(v.dump()), v);
  // Member order is insertion (= author) order, not sorted.
  EXPECT_EQ(v.object_members()[0].first, "b");
  EXPECT_EQ(v.object_members()[1].first, "a");
  // Integer literals stay integers, decimals stay doubles.
  EXPECT_TRUE(v.find("i")->is_int());
  EXPECT_FALSE(v.find("d")->is_int());
  EXPECT_TRUE(v.find("d")->is_number());
}

TEST(Json, NumbersRoundTripBitExactly) {
  for (double d : {0.1, 1.0 / 3.0, 1e-308, 1.7976931348623157e308, -0.0,
                   123456789.123456789, 6.62607015e-34}) {
    const Json parsed = Json::parse(Json(d).dump());
    ASSERT_TRUE(parsed.is_number());
    EXPECT_EQ(parsed.number_value(), d) << Json(d).dump();
  }
  // Integer-valued doubles keep a ".0" marker so they re-parse as Double.
  EXPECT_EQ(Json(3.0).dump(), "3.0");
  EXPECT_FALSE(Json::parse("3.0").is_int());
  EXPECT_TRUE(Json::parse("3").is_int());
  EXPECT_EQ(Json::parse("9223372036854775807").int_value(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Json, IntAndDoubleAreDistinctValues) {
  EXPECT_NE(Json(3), Json(3.0));
  EXPECT_EQ(Json(3), Json(3));
  EXPECT_EQ(Json(3.0), Json(3.0));
}

TEST(Json, WriterEmitsNonFiniteNumbersAsStrings) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(nan).dump(), "\"nan\"");
  EXPECT_EQ(Json(-nan).dump(), "\"nan\"");
  EXPECT_EQ(Json(inf).dump(), "\"inf\"");
  EXPECT_EQ(Json(-inf).dump(), "\"-inf\"");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  // Re-parsing reads the non-finite values back as strings.
  const Json back = Json::parse(Json::make_array({Json(nan), Json(-inf)}).dump());
  EXPECT_EQ(back, Json::make_array({Json("nan"), Json("-inf")}));
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW(Json::parse("[1, 2,]"), JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
  EXPECT_THROW(Json::parse("1e999"), JsonError);
}

TEST(JsonView, ErrorsNameTheExactPath) {
  const Json v = Json::parse(R"({"sweeps":[{"axes":[{"param":7}]}]})");
  const JsonView root(v);
  try {
    root.at("sweeps").at(0).at("axes").at(0).at("param").as_string();
    FAIL() << "type mismatch accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.sweeps[0].axes[0].param"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("string"), std::string::npos);
  }
  // as_int is strict: a Double is a type error even when integer-valued.
  const Json d = Json::parse(R"({"count":3.0})");
  EXPECT_THROW(JsonView(d).at("count").as_int(), JsonError);
  EXPECT_THROW(JsonView(d).at("missing"), JsonError);
  const Json r = Json::parse(R"({"count":99})");
  EXPECT_THROW(JsonView(r).at("count").as_int_in(1, 64), JsonError);
  EXPECT_EQ(JsonView(r).at("count").as_int_in(1, 100), 99);
}

// ------------------------------------------------------- sweep expansion

Json parse_config(const std::string& text) { return Json::parse(text); }

TEST(SweepExpansion, CartesianProductLastAxisFastest) {
  const auto plan = sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{
      "scenario": "qkd_link_budget",
      "base": { "dark_rate_hz": 100.0 },
      "axes": [
        { "param": "distance_km", "values": [0.0, 10.0] },
        { "param": "detection_efficiency_scale", "linspace": {"start": 0.5, "stop": 1.0, "count": 3} }
      ]
    }]
  })"));
  ASSERT_EQ(plan.instances.size(), 6u);
  const auto value = [&](std::size_t i, const char* key) {
    return plan.instances[i].params.find(key)->number_value();
  };
  // Last axis fastest: scale cycles within each distance.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(value(i, "distance_km"), i < 3 ? 0.0 : 10.0);
    EXPECT_EQ(value(i, "dark_rate_hz"), 100.0);
  }
  EXPECT_EQ(value(0, "detection_efficiency_scale"), 0.5);
  EXPECT_EQ(value(1, "detection_efficiency_scale"), 0.75);
  EXPECT_EQ(value(2, "detection_efficiency_scale"), 1.0);  // endpoint exact
  EXPECT_EQ(value(3, "detection_efficiency_scale"), 0.5);
}

TEST(SweepExpansion, ConfigErrorsNameThePath) {
  // Unknown scenario: names the path and lists what is registered.
  try {
    sweep::expand_sweep_config(
        parse_config(R"({"sweeps":[{"scenario":"nope"}]})"));
    FAIL() << "unknown scenario accepted";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("$.sweeps[0].scenario"), std::string::npos) << what;
    EXPECT_NE(what.find("qkd_link_budget"), std::string::npos) << what;
  }
  // Unknown top-level / sweep-level keys.
  EXPECT_THROW(sweep::expand_sweep_config(parse_config(R"({"sweps":[]})")),
               JsonError);
  EXPECT_THROW(sweep::expand_sweep_config(parse_config(
                   R"({"sweeps":[{"scenario":"qudit_source","bass":{}}]})")),
               JsonError);
  // Axis must have exactly one of values / linspace, and values non-empty.
  EXPECT_THROW(
      sweep::expand_sweep_config(parse_config(
          R"({"sweeps":[{"scenario":"qudit_source","axes":[{"param":"dimension"}]}]})")),
      JsonError);
  EXPECT_THROW(
      sweep::expand_sweep_config(parse_config(
          R"({"sweeps":[{"scenario":"qudit_source","axes":[{"param":"dimension","values":[]}]}]})")),
      JsonError);
  // Instance cap: 101 x 101 > 10000 fails at expansion time.
  EXPECT_THROW(sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{"scenario": "qudit_source", "axes": [
      {"param": "a", "linspace": {"start": 0.0, "stop": 1.0, "count": 101}},
      {"param": "b", "linspace": {"start": 0.0, "stop": 1.0, "count": 101}}
    ]}]})")),
               JsonError);
}

TEST(SweepExpansion, UnknownParamKeyFailsTheInstanceWithItsPath) {
  const auto plan = sweep::expand_sweep_config(parse_config(
      R"({"sweeps":[{"scenario":"qudit_source","base":{"dimension":3,"pump_powr_w":0.01}}]})"));
  const auto report = sweep::run_sweep(plan, 1);
  EXPECT_EQ(report.num_failed, 1u);
  const std::string dumped = report.json.dump();
  EXPECT_NE(dumped.find("unknown key 'pump_powr_w'"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("$.sweeps[0].params"), std::string::npos) << dumped;
}

// ------------------------------------------------------------ sweep runs

const char* kParitySweep = R"({
  "sweeps": [
    {
      "scenario": "qkd_link_budget",
      "base": { "num_channel_pairs": 2 },
      "axes": [{ "param": "distance_km", "values": [0.0, 20.0, 40.0] }]
    },
    {
      "scenario": "qudit_source",
      "axes": [{ "param": "dimension", "values": [2, 4] }]
    },
    {
      "scenario": "stability_comparison",
      "base": { "observation_days": 0.25, "sample_interval_s": 900.0 }
    }
  ]
})";

TEST(SweepRun, ReportBytesIdenticalAcrossWorkerCounts) {
  const auto plan = sweep::expand_sweep_config(parse_config(kParitySweep));
  ASSERT_EQ(plan.instances.size(), 6u);
  const auto at1 = sweep::run_sweep(plan, 1);
  EXPECT_EQ(at1.num_failed, 0u);
  const std::string bytes1 = at1.json.dump(2);
  for (int workers : {2, 4}) {
    const std::string bytes = sweep::run_sweep(plan, workers).json.dump(2);
    EXPECT_EQ(bytes, bytes1) << "diverged at " << workers << " workers";
  }
}

TEST(SweepRun, PoolStartsNoMoreThreadsThanInstances) {
  // Two instances at eight workers: only the caller and one worker run, so
  // no busy counter of a pool thread past index 1 moves.
  const auto plan = sweep::expand_sweep_config(parse_config(
      R"({"sweeps":[{"scenario":"qudit_source",
                     "axes":[{"param":"dimension","values":[2,3]}]}]})"));
  ASSERT_EQ(plan.instances.size(), 2u);
  obs::reset();
  obs::enable_metrics(true);
  const auto report = sweep::run_sweep(plan, 8);
  obs::disable();
  EXPECT_EQ(report.num_failed, 0u);
  EXPECT_EQ(obs::counter("parallel.tasks").value(), 2u);
  for (int k = 2; k < 8; ++k)
    EXPECT_EQ(obs::counter("parallel.worker_busy_ns." + std::to_string(k)).value(), 0u) << k;
  obs::reset();
}

TEST(SweepRun, ReportMatchesSerialAdapterInvocation) {
  // The merged report's result entries are exactly what calling each
  // registered adapter serially produces — fan-out adds nothing.
  const auto plan = sweep::expand_sweep_config(parse_config(kParitySweep));
  const auto report = sweep::run_sweep(plan, 4);
  const auto& entries = report.json.find("results")->array_items();
  ASSERT_EQ(entries.size(), plan.instances.size());
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto* scenario =
        sweep::ScenarioRegistry::instance().find(plan.instances[i].scenario);
    ASSERT_NE(scenario, nullptr);
    const Json direct = scenario->run(JsonView(plan.instances[i].params));
    EXPECT_EQ(*entries[i].find("result"), direct) << plan.instances[i].scenario;
  }
}

TEST(SweepRun, FailingInstanceIsIsolated) {
  // dark_rate_hz < 0 fails UserEndpointParams::validate inside the second
  // instance; its neighbors still run and the report keeps config order.
  const auto plan = sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{
      "scenario": "qkd_link_budget",
      "axes": [{ "param": "dark_rate_hz", "values": [100.0, -5.0, 300.0] }]
    }]
  })"));
  const auto report = sweep::run_sweep(plan, 2);
  EXPECT_EQ(report.num_scenarios, 3u);
  EXPECT_EQ(report.num_failed, 1u);
  const auto& entries = report.json.find("results")->array_items();
  EXPECT_TRUE(entries[0].find("ok")->bool_value());
  EXPECT_FALSE(entries[1].find("ok")->bool_value());
  EXPECT_TRUE(entries[2].find("ok")->bool_value());
  EXPECT_NE(entries[1].find("error")->string_value().find("params.dark_rate_hz"),
            std::string::npos);
  EXPECT_EQ(entries[1].find("result"), nullptr);
}

TEST(SweepRun, StabilityObservationShorterThanOneSampleFailsOnlyItsInstance) {
  // 0.001 days is 86.4 s, less than one 600 s sample: that instance fails
  // validation and the other still runs.
  const auto plan = sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{
      "scenario": "stability_comparison",
      "base": { "sample_interval_s": 600.0 },
      "axes": [{ "param": "observation_days", "values": [0.001, 0.1] }]
    }]
  })"));
  const auto report = sweep::run_sweep(plan, 2);
  EXPECT_EQ(report.num_failed, 1u);
  const auto& entries = report.json.find("results")->array_items();
  EXPECT_FALSE(entries[0].find("ok")->bool_value());
  EXPECT_NE(entries[0].find("error")->string_value().find("StabilityConfig.observation_days"),
            std::string::npos);
  EXPECT_TRUE(entries[1].find("ok")->bool_value());
}

TEST(SweepRun, NoDataNetworkUserReportsNanQber) {
  // The user 2000 km out sees no coincidence in 10 ms: the instance still
  // succeeds and the report carries its QBER as "nan".
  const auto plan = sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{
      "scenario": "qkd_network",
      "base": { "num_users": 2, "max_distance_km": 2000.0, "duration_s": 0.01 }
    }]
  })"));
  const auto report = sweep::run_sweep(plan, 1);
  EXPECT_EQ(report.num_failed, 0u);
  const std::string bytes = report.json.dump(2);
  EXPECT_NE(bytes.find(R"("qber": "nan")"), std::string::npos);
  EXPECT_EQ(bytes.find("null"), std::string::npos);
}

TEST(SweepRun, OutOfRangeParamNamesItsJsonPath) {
  // One out-of-range value per scenario: the failed instance's error names
  // the offending key under the instance's parameter path.
  const std::pair<const char*, const char*> cases[] = {
      {"heralded_channel_table", R"({"duration_s": -1.0})"},
      {"type2_car", R"({"pbs_extinction_db": 0.0})"},
      {"timebin_chsh", R"({"accidental_fraction": 1.0})"},
      {"four_photon", R"({"fourfold_accidental_fraction": -0.1})"},
      {"stability_comparison", R"({"temperature_rms_K": -1.0})"},
      {"qkd_link_budget", R"({"sifting_factor": 1.5})"},
      {"qkd_network", R"({"num_users": 2, "stream_window_s": 0.0})"},
      {"qudit_source", R"({"dimension": 65})"},
  };
  for (const auto& [scenario, base] : cases) {
    Json config = Json::make_object();
    Json sweep = Json::make_object();
    sweep.set("scenario", scenario);
    sweep.set("base", Json::parse(base));
    config.set("sweeps", Json::make_array({sweep}));
    const auto report = sweep::run_sweep(sweep::expand_sweep_config(config), 1);
    ASSERT_EQ(report.num_failed, 1u) << scenario;
    const std::string error =
        report.json.find("results")->array_items()[0].find("error")->string_value();
    // The key is the last one of the base object.
    const std::string key = Json::parse(base).object_members().back().first;
    EXPECT_NE(error.find("$.sweeps[0].params." + key + ": must be"), std::string::npos)
        << scenario << ": " << error;
  }
}

TEST(SweepRun, SpelledOutDefaultsReproduceTheSmokeInstances) {
  // The first instance of every smoke sweep, once as written and once with
  // every other listed parameter spelled out at its listed default: the
  // result bytes must agree, so the listed defaults are the ones in use.
  std::ifstream in(QFC_SOURCE_DIR "/examples/sweep_smoke.json");
  ASSERT_TRUE(in) << "cannot open the smoke config";
  std::ostringstream text;
  text << in.rdbuf();
  const auto plan = sweep::expand_sweep_config(Json::parse(text.str()));
  std::string previous;
  int checked = 0;
  for (const auto& instance : plan.instances) {
    if (instance.path == previous) continue;  // not the first of its sweep
    previous = instance.path;
    ++checked;
    const auto* scenario = sweep::ScenarioRegistry::instance().find(instance.scenario);
    ASSERT_NE(scenario, nullptr);
    Json spelled = instance.params;
    for (const auto& param : scenario->params)
      if (!param.default_value.is_null() && !spelled.find(param.name))
        spelled.set(param.name, param.default_value);
    ASSERT_NE(spelled, instance.params) << instance.scenario << ": nothing spelled out";
    EXPECT_EQ(scenario->run(JsonView(spelled)).dump(),
              scenario->run(JsonView(instance.params)).dump())
        << instance.scenario;
  }
  EXPECT_EQ(checked, 8);
}

// --------------------------------------------- adapter-vs-façade parity

using core::PumpConfiguration;
using core::QuantumFrequencyComb;

Json run_adapter(const char* name, const std::string& params_text) {
  const auto* scenario = sweep::ScenarioRegistry::instance().find(name);
  EXPECT_NE(scenario, nullptr) << name;
  const Json params = Json::parse(params_text);
  return scenario->run(JsonView(params));
}

TEST(ScenarioParity, HeraldedChannelTable) {
  const Json via_sweep = run_adapter(
      "heralded_channel_table",
      R"({"duration_s": 0.05, "num_channel_pairs": 2, "seed": 7})");
  core::HeraldedConfig cfg;
  cfg.duration_s = 0.05;
  cfg.num_channel_pairs = 2;
  cfg.seed = 7;
  cfg.engine_threads = 1;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
  auto exp = comb.heralded(cfg);
  Json direct = Json::make_object();
  direct.set("channels", io::to_json(exp.run_channel_table()));
  EXPECT_EQ(via_sweep, direct);
}

TEST(ScenarioParity, QkdLinkBudget) {
  const Json via_sweep =
      run_adapter("qkd_link_budget", R"({"distance_km": 25.0, "dark_rate_hz": 700.0})");
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  core::UserEndpointParams endpoint;
  endpoint.dark_rate_hz = 700.0;
  const core::MultiplexedQkdLink link(exp, endpoint);
  const auto& channels_json = via_sweep.find("channels")->array_items();
  const auto direct = link.all_channels(25.0);
  ASSERT_EQ(channels_json.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(channels_json[i], io::to_json(direct[i]));
  EXPECT_EQ(via_sweep.find("aggregate_key_rate_bps")->number_value(),
            link.aggregate_key_rate_bps(25.0));
}

TEST(ScenarioParity, TimebinChsh) {
  const Json via_sweep = run_adapter(
      "timebin_chsh",
      R"({"channel": 1, "num_channel_pairs": 2, "fringe_points": 12, "seed": 3})");
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
  core::TimebinConfig cfg;
  cfg.pump = core::TimebinConfig::make_default_pump(comb.device());
  cfg.num_channel_pairs = 2;
  cfg.fringe_points = 12;
  cfg.seed = 3;
  auto exp = comb.timebin(cfg);
  EXPECT_EQ(via_sweep.find("channels")->array_items()[0],
            io::to_json(exp.run_channel(1)));
}

TEST(ScenarioParity, Type2Car) {
  const Json via_sweep = run_adapter("type2_car", R"({"duration_s": 0.2})");
  core::Type2Config cfg;
  cfg.duration_s = 0.2;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::CrossPolarized);
  auto exp = comb.type2(cfg);
  EXPECT_EQ(*via_sweep.find("car"), io::to_json(exp.run_car_measurement()));
  EXPECT_EQ(via_sweep.find("opo_threshold_w")->number_value(), exp.opo_threshold_w());
}

TEST(ScenarioParity, StabilityComparison) {
  const Json via_sweep = run_adapter(
      "stability_comparison", R"({"observation_days": 0.25, "sample_interval_s": 900.0})");
  core::StabilityConfig cfg;
  cfg.observation_days = 0.25;
  cfg.sample_interval_s = 900.0;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
  EXPECT_EQ(via_sweep, io::to_json(comb.stability(cfg).run()));
}

TEST(ScenarioParity, FourPhoton) {
  const std::string params =
      R"({"fringe_points": 6, "fourfold_events_per_point": 30.0, "tomo_shots_per_setting": 40.0})";
  const Json via_sweep = run_adapter("four_photon", params);
  core::FourPhotonConfig cfg;
  cfg.fringe_points = 6;
  cfg.fourfold_events_per_point = 30.0;
  cfg.tomo_shots_per_setting = 40.0;
  auto comb =
      QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulseFourMode);
  EXPECT_EQ(via_sweep, io::to_json(comb.four_photon(cfg).run()));
}

TEST(ScenarioParity, QkdNetwork) {
  const Json via_sweep = run_adapter(
      "qkd_network",
      R"({"num_users": 4, "max_distance_km": 20.0, "duration_s": 0.05, "stream_window_s": 0.025})");
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  auto cfg = core::QkdNetworkConfig::uniform(4, 20.0);
  cfg.stream_window_s = 0.025;
  cfg.analysis_threads = 1;
  const core::QkdNetwork network(exp, cfg);
  EXPECT_EQ(via_sweep, io::to_json(network.run(0.05)));
}

TEST(ScenarioParity, QuditSource) {
  const Json via_sweep = run_adapter("qudit_source", R"({"dimension": 4})");
  core::HeraldedConfig cfg;
  cfg.num_channel_pairs = 4;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
  auto exp = comb.heralded(cfg);
  const auto source = qudit::FreqBinSource::from_cw_source(exp.source(), 4);
  EXPECT_EQ(via_sweep.find("schmidt_number")->number_value(), source.schmidt_number());
  EXPECT_EQ(via_sweep.find("flattening_efficiency")->number_value(),
            source.shaping_efficiency(source.flattening_mask()));
}

// --------------------------------------------- façade config validation

TEST(FacadeConfigs, ValidateNamesTheOffendingField) {
  core::HeraldedConfig heralded;
  heralded.duration_s = -1;
  try {
    heralded.validate();
    FAIL() << "invalid config accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("HeraldedConfig.duration_s"),
              std::string::npos)
        << e.what();
  }
  core::Type2Config type2;
  type2.pump_power_total_w = 0;
  EXPECT_THROW(type2.validate(), std::invalid_argument);
  core::FourPhotonConfig four;
  four.pair_b = four.pair_a;
  EXPECT_THROW(four.validate(), std::invalid_argument);
  core::StabilityConfig stability;
  stability.sample_interval_s = 0;
  EXPECT_THROW(stability.validate(), std::invalid_argument);
  qudit::FreqBinConfig qudit_cfg;
  qudit_cfg.dimension = 1;
  EXPECT_THROW(qudit_cfg.validate(), std::invalid_argument);
}

TEST(FacadeConfigs, StabilityObservationMustCoverOneSample) {
  core::StabilityConfig cfg;
  cfg.observation_days = 0.001;
  cfg.sample_interval_s = 600.0;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
  try {
    comb.stability(cfg);
    FAIL() << "an observation shorter than one sample was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("StabilityConfig.observation_days"),
              std::string::npos)
        << e.what();
  }
  cfg.sample_interval_s = 80.0;  // one sample
  EXPECT_EQ(comb.stability(cfg).run().self_locked.samples(), 1u);
}

/// Sets each number field of `valid` in turn to NaN, and to -inf / +inf
/// where its interval is bounded on that side; `validate` must reject each
/// with a message naming "Type.field".
template <class T, class Validate>
void expect_non_finite_rejected(const char* type, const T& valid, Validate validate) {
  ASSERT_NO_THROW(validate(valid)) << type;
  const double inf = std::numeric_limits<double>::infinity();
  io::for_each_field<T>([&](const auto& f) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(valid.*f.member)>, double>) {
      for (const double bad : {std::nan(""), -inf, inf}) {
        T cfg = valid;
        cfg.*f.member = bad;
        const std::string field = std::string(type) + "." + f.name;
        try {
          validate(cfg);
          ADD_FAILURE() << field << " accepted " << bad;
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
      }
    }
  });
}

TEST(FacadeConfigs, EveryTableRejectsNonFiniteValues) {
  const auto validate = [](const auto& cfg) { cfg.validate(); };
  expect_non_finite_rejected("HeraldedConfig", core::HeraldedConfig{}, validate);
  expect_non_finite_rejected("Type2Config", core::Type2Config{}, validate);
  core::TimebinConfig timebin;
  timebin.pump = core::TimebinConfig::make_default_pump(
      QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse).device());
  expect_non_finite_rejected("TimebinConfig", timebin, validate);
  expect_non_finite_rejected("FourPhotonConfig", core::FourPhotonConfig{}, validate);
  expect_non_finite_rejected("FourPhotonConfig.tomo_noise", tomo::NoiseKnobs{},
                             [](const tomo::NoiseKnobs& noise) {
                               core::FourPhotonConfig cfg;
                               cfg.tomo_noise = noise;
                               cfg.validate();
                             });
  expect_non_finite_rejected("NoiseKnobs", tomo::NoiseKnobs{},
                             [](const tomo::NoiseKnobs& noise) {
                               rng::Xoshiro256 g(1);
                               tomo::simulate_counts(quantum::werner_phi(0.9), 10.0, noise, g);
                             });
  expect_non_finite_rejected("StabilityConfig", core::StabilityConfig{}, validate);
  expect_non_finite_rejected("UserEndpointParams", core::UserEndpointParams{}, validate);
  expect_non_finite_rejected("LinkGeometry", core::LinkGeometry{}, validate);
  expect_non_finite_rejected("QkdUserSpec", core::QkdUserSpec{},
                             [](const core::QkdUserSpec& user) {
                               core::QkdNetworkConfig network;
                               network.users = {user};
                               network.validate(5);
                             });
  expect_non_finite_rejected("QkdNetworkConfig", core::QkdNetworkConfig::uniform(2, 10.0),
                             [](const core::QkdNetworkConfig& cfg) { cfg.validate(5); });
  expect_non_finite_rejected("HbtParams", core::HbtParams{}, validate);
  expect_non_finite_rejected("FreqBinConfig", qudit::FreqBinConfig{}, validate);
}

}  // namespace
