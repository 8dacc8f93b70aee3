#include "qfc/sweep/sweep.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "qfc/parallel/worker_pool.hpp"
#include "qfc/sweep/scenario.hpp"

namespace qfc::sweep {

namespace {

constexpr std::size_t kMaxInstances = 10000;

/// One expanded sweep axis: the parameter it drives and its value list.
struct Axis {
  std::string param;
  std::vector<io::Json> values;
};

Axis parse_axis(const io::JsonView& axis) {
  axis.require_keys_among({"param", "values", "linspace"});
  Axis out;
  out.param = axis.at("param").as_string();
  const bool has_values = axis.has("values");
  const bool has_linspace = axis.has("linspace");
  if (has_values == has_linspace)
    axis.fail("expected exactly one of 'values' or 'linspace'");
  if (has_values) {
    const io::JsonView values = axis.at("values");
    const std::size_t n = values.array_size();
    if (n == 0) values.fail("axis value list is empty");
    for (std::size_t i = 0; i < n; ++i) {
      const io::JsonView v = values.at(i);
      if (v.value().is_array() || v.value().is_object() || v.value().is_null())
        v.fail("axis values must be scalars (bool, number, or string)");
      out.values.push_back(v.value());
    }
  } else {
    const io::JsonView ls = axis.at("linspace");
    ls.require_keys_among({"start", "stop", "count"});
    const double start = ls.at("start").as_number();
    const double stop = ls.at("stop").as_number();
    const auto count = ls.at("count").as_int_in(1, static_cast<std::int64_t>(kMaxInstances));
    out.values.reserve(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      // Endpoint-exact evenly spaced grid; a single point sits at start.
      const double t = count == 1 ? 0.0
                                  : static_cast<double>(i) /
                                        static_cast<double>(count - 1);
      out.values.push_back(io::Json(start + (stop - start) * t));
    }
  }
  return out;
}

void expand_one_sweep(const io::JsonView& sweep, SweepPlan& plan) {
  sweep.require_keys_among({"scenario", "base", "axes"});
  const std::string& name = sweep.at("scenario").as_string();
  if (ScenarioRegistry::instance().find(name) == nullptr) {
    std::string known;
    for (const Scenario& s : ScenarioRegistry::instance().scenarios()) {
      if (!known.empty()) known += ", ";
      known += s.name;
    }
    sweep.at("scenario").fail("unknown scenario '" + name +
                              "' (registered: " + known + ")");
  }

  io::Json base = io::Json::make_object();
  if (sweep.has("base")) {
    const io::JsonView b = sweep.at("base");
    if (!b.is_object()) b.fail("expected a parameter object");
    base = b.value();
  }

  std::vector<Axis> axes;
  std::size_t combinations = 1;
  if (sweep.has("axes")) {
    const io::JsonView axes_view = sweep.at("axes");
    const std::size_t n = axes_view.array_size();
    for (std::size_t i = 0; i < n; ++i) {
      Axis axis = parse_axis(axes_view.at(i));
      if (combinations > kMaxInstances / axis.values.size())
        axes_view.fail("axis product exceeds the instance cap");
      combinations *= axis.values.size();
      axes.push_back(std::move(axis));
    }
  }
  if (plan.instances.size() + combinations > kMaxInstances)
    sweep.fail("sweep config expands to more than " +
               std::to_string(kMaxInstances) + " scenario instances");

  // Row-major cartesian product: the last axis varies fastest, so the
  // report order matches a nested-loop reading of the config.
  for (std::size_t flat = 0; flat < combinations; ++flat) {
    ScenarioInstance instance;
    instance.scenario = name;
    instance.params = base;
    instance.path = sweep.path();
    std::size_t remainder = flat;
    for (std::size_t a = axes.size(); a-- > 0;) {
      const Axis& axis = axes[a];
      instance.params.set(axis.param, axis.values[remainder % axis.values.size()]);
      remainder /= axis.values.size();
    }
    plan.instances.push_back(std::move(instance));
  }
}

}  // namespace

SweepPlan expand_sweep_config(const io::Json& config) {
  const io::JsonView root(config);
  if (!root.is_object()) root.fail("expected a sweep config object");
  root.require_keys_among({"workers", "sweeps"});

  SweepPlan plan;
  if (root.has("workers"))
    plan.workers = static_cast<int>(root.at("workers").as_int_in(1, 1024));

  const io::JsonView sweeps = root.at("sweeps");
  const std::size_t n = sweeps.array_size();
  if (n == 0) sweeps.fail("sweep list is empty");
  for (std::size_t i = 0; i < n; ++i) expand_one_sweep(sweeps.at(i), plan);
  return plan;
}

SweepReport run_sweep(const SweepPlan& plan, int workers) {
  const std::size_t n = plan.instances.size();
  std::vector<io::Json> results(n);
  std::vector<std::string> errors(n);
  std::vector<char> failed(n, 0);

  // Failure isolation: a throwing instance fills its error slot and the
  // round continues. Only JsonError/std::exception are caught — anything
  // else is a bug and should crash loudly.
  const auto run_one = [&](std::size_t i) {
    const ScenarioInstance& instance = plan.instances[i];
    const Scenario* scenario = ScenarioRegistry::instance().find(instance.scenario);
    try {
      if (scenario == nullptr)
        throw io::JsonError(instance.path + ": unknown scenario '" +
                            instance.scenario + "'");
      results[i] = scenario->run(io::JsonView(instance.params, instance.path + ".params"));
    } catch (const std::exception& e) {
      failed[i] = 1;
      errors[i] = e.what();
    }
  };

  // Every task writes one disjoint slot, so any schedule is bitwise safe;
  // one task per instance keeps long scenarios from serializing behind each
  // other on one worker. A pool of one runs inline, and no more threads
  // start than there are instances.
  parallel::WorkerPool pool(static_cast<unsigned>(
      std::min<std::size_t>(static_cast<std::size_t>(std::max(workers, 1)), n)));
  pool.run(n, run_one);

  // Merge in plan (= config) order.
  SweepReport report;
  report.num_scenarios = n;
  io::Json entries = io::Json::make_array();
  for (std::size_t i = 0; i < n; ++i) {
    io::Json entry = io::Json::make_object();
    entry.set("index", i);
    entry.set("scenario", plan.instances[i].scenario);
    entry.set("params", plan.instances[i].params);
    entry.set("ok", failed[i] == 0);
    if (failed[i] == 0) {
      entry.set("result", std::move(results[i]));
    } else {
      entry.set("error", errors[i]);
      ++report.num_failed;
    }
    entries.push_back(std::move(entry));
  }
  report.json = io::Json::make_object();
  report.json.set("num_scenarios", report.num_scenarios);
  report.json.set("num_failed", report.num_failed);
  report.json.set("results", std::move(entries));
  return report;
}

}  // namespace qfc::sweep
