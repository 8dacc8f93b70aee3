// qfc_sweep: config-driven scenario-sweep runner over the qfc::sweep
// scenario registry.
//
//   qfc_sweep --config sweep.json --out report.json --workers 4
//   qfc_sweep --list            (every scenario's parameters, defaults, ranges)
//   qfc_sweep --config sweep.json --selfcheck
//
// The report is deterministic: bitwise identical bytes at every worker
// count (and across runs), so CI can gate parallel correctness with cmp.
// --selfcheck does that gate in-process: it runs the sweep at 1, 2, and 4
// workers, byte-compares the three reports, and additionally requires
// every scenario instance to succeed.
//
// Exit codes: 0 success; 1 usage/config/I/O error; 2 selfcheck divergence;
// 3 one or more scenario instances failed (the report still lists them).

#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "qfc/io/json.hpp"
#include "qfc/sweep/scenario.hpp"
#include "qfc/sweep/sweep.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --config PATH [--out PATH] [--workers N] [--selfcheck]\n"
            << "       " << argv0 << " --list\n";
  return 1;
}

int list_scenarios() {
  for (const auto& scenario : qfc::sweep::ScenarioRegistry::instance().scenarios()) {
    std::cout << scenario.name << "\n    " << scenario.description << "\n";
    for (const auto& param : scenario.params) {
      std::cout << "    - " << param.name << " (" << param.type << ", "
                << (param.default_value.is_null() ? "required"
                                                  : "default " + param.default_value.dump());
      if (param.valid.bounded()) std::cout << ", " << qfc::io::describe(param.valid);
      std::cout << "): " << param.doc << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string out_path;
  int workers = 0;  // 0 = take the config's value
  bool selfcheck = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "qfc_sweep: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--list") == 0) return list_scenarios();
    if (std::strcmp(arg, "--selfcheck") == 0) {
      selfcheck = true;
    } else if (std::strcmp(arg, "--config") == 0) {
      const char* v = value();
      if (!v) return 1;
      config_path = v;
    } else if (std::strcmp(arg, "--out") == 0) {
      const char* v = value();
      if (!v) return 1;
      out_path = v;
    } else if (std::strcmp(arg, "--workers") == 0) {
      const char* v = value();
      if (!v) return 1;
      // The whole argument must be the integer: "2x" and "1e3" are errors.
      const char* end = v + std::strlen(v);
      const auto [ptr, ec] = std::from_chars(v, end, workers);
      if (ec != std::errc() || ptr != end || workers < 1 || workers > 1024) {
        std::cerr << "qfc_sweep: --workers must be in [1, 1024]\n";
        return 1;
      }
    } else {
      std::cerr << "qfc_sweep: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    }
  }
  if (config_path.empty()) return usage(argv[0]);

  std::ifstream in(config_path);
  if (!in) {
    std::cerr << "qfc_sweep: cannot open " << config_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  qfc::sweep::SweepPlan plan;
  try {
    plan = qfc::sweep::expand_sweep_config(qfc::io::Json::parse(buffer.str()));
  } catch (const std::exception& e) {
    std::cerr << "qfc_sweep: " << config_path << ": " << e.what() << "\n";
    return 1;
  }
  if (workers == 0) workers = plan.workers;

  if (selfcheck) {
    // The determinism gate: the same plan at three worker counts must
    // serialize to the same bytes, and nothing may fail.
    const auto at1 = qfc::sweep::run_sweep(plan, 1);
    const std::string bytes1 = at1.json.dump(2);
    for (int w : {2, 4}) {
      const std::string bytes = qfc::sweep::run_sweep(plan, w).json.dump(2);
      if (bytes != bytes1) {
        std::cerr << "qfc_sweep: selfcheck FAILED: report at " << w
                  << " workers differs from 1 worker\n";
        return 2;
      }
    }
    if (at1.num_failed != 0) {
      std::cerr << "qfc_sweep: selfcheck FAILED: " << at1.num_failed << " of "
                << at1.num_scenarios << " scenario instances failed\n";
      std::cerr << bytes1 << "\n";
      return 3;
    }
    std::cout << "selfcheck OK: " << at1.num_scenarios
              << " scenario instances, identical reports at 1/2/4 workers\n";
    return 0;
  }

  const auto report = qfc::sweep::run_sweep(plan, workers);
  const std::string bytes = report.json.dump(2) + "\n";
  if (out_path.empty()) {
    std::cout << bytes;
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "qfc_sweep: cannot write " << out_path << "\n";
      return 1;
    }
    out << bytes;
  }
  std::cerr << "qfc_sweep: " << report.num_scenarios << " scenario instances, "
            << report.num_failed << " failed\n";
  return report.num_failed == 0 ? 0 : 3;
}
