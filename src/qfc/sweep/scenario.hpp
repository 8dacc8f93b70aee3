#pragma once

/// \file scenario.hpp
/// Uniform experiment API over the core façades: every end-to-end
/// experiment of the paper is registered here as a named *scenario* — a
/// JSON-parameterized adapter `run(params) -> Json` whose parameters are
/// the field tables (io/fields.hpp) of the Config structs it builds, plus
/// the adapter's own arguments in the same table form, and whose result is
/// the façade result through io::to_json(). The sweep runner (sweep.hpp) and the
/// qfc_sweep CLI enumerate experiments through this registry instead of
/// hard-coding façade calls, so adding an experiment to the repo means
/// adding one registry entry.
///
/// Adapter contract:
///  - deterministic: the result depends only on `params` (seeds are
///    parameters; no wall clock, no global state), so sweep reports are
///    bitwise identical at any worker count;
///  - strict: unknown parameter keys, type mismatches and out-of-range
///    values throw io::JsonError naming the exact JSON path;
///  - self-describing: the field tables are the single source of truth
///    for each parameter's name, type, default, range and doc. The
///    ParamSpec list is generated from them, the registry generates the
///    unknown-key guard from that list, and `qfc_sweep --list` prints it.

#include <functional>
#include <string_view>
#include <vector>

#include "qfc/io/fields.hpp"

namespace qfc::sweep {

/// One accepted parameter of a scenario: a field-table entry with its
/// default (null when required) and valid interval.
using ParamSpec = io::FieldSpec;

/// One registered experiment adapter.
struct Scenario {
  const char* name;
  const char* description;
  std::vector<ParamSpec> params;
  /// Runs the experiment with the given parameter object (a JsonView so
  /// errors carry the caller's JSON path). Unknown keys have already been
  /// rejected by the registry wrapper when this is called.
  std::function<io::Json(const io::JsonView&)> run;
};

/// Immutable process-wide table of every scenario. Construction is eager
/// and cheap (no devices are built until a scenario runs).
class ScenarioRegistry {
 public:
  static const ScenarioRegistry& instance();

  /// nullptr when no scenario has that name.
  const Scenario* find(std::string_view name) const noexcept;
  const std::vector<Scenario>& scenarios() const noexcept { return scenarios_; }

 private:
  ScenarioRegistry();
  /// Registers `run` wrapped with the unknown-key guard derived from
  /// `params`.
  void add(const char* name, const char* description, std::vector<ParamSpec> params,
           std::function<io::Json(const io::JsonView&)> run);

  std::vector<Scenario> scenarios_;
};

}  // namespace qfc::sweep
