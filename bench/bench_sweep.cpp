// Perf bench for the config-driven scenario-sweep runner (qfc::sweep):
// expands an analytic-heavy multi-experiment sweep config and runs it at
// 1, 2, and 4 sweep workers. Each worker row carries the bitwise `identical`
// flag (serialized report byte-equal to the 1-worker run — the merged-report
// determinism contract the qfc_sweep CLI and CI gate ride on) and a
// `speedup_vs_1t` ratio column for the CI ratio-mode gate.
//
// Usage: bench_sweep [--smoke] [--json PATH] [--help]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "qfc/io/json.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/sweep/sweep.hpp"

namespace {

using namespace qfc;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Mixed config: many cheap analytic instances (link budgets, qudit
/// measures, stability traces) to stress the fan-out bookkeeping, plus a
/// few Monte-Carlo network runs so each worker-count row carries enough
/// real work (~tens of ms) for the ratio columns to sit above timer noise.
std::string make_config(bool smoke) {
  const int distance_points = smoke ? 20 : 60;
  const double network_duration_s = smoke ? 0.05 : 0.2;
  return std::string(R"({
    "sweeps": [
      {
        "scenario": "qkd_link_budget",
        "base": { "num_channel_pairs": 4 },
        "axes": [
          { "param": "distance_km",
            "linspace": { "start": 0.0, "stop": 80.0, "count": )") +
         std::to_string(distance_points) + R"( } },
          { "param": "dark_rate_hz", "values": [200.0, 1000.0] }
        ]
      },
      {
        "scenario": "qudit_source",
        "axes": [
          { "param": "dimension", "values": [2, 3, 4, 5, 6, 7, 8, 9] }
        ]
      },
      {
        "scenario": "stability_comparison",
        "base": { "observation_days": 0.25, "sample_interval_s": 900.0 },
        "axes": [
          { "param": "seed", "values": [1, 2, 3, 4] }
        ]
      },
      {
        "scenario": "qkd_network",
        "base": { "num_users": 8, "max_distance_km": 40.0,
                  "duration_s": )" +
         std::to_string(network_duration_s) + R"(,
                  "stream_window_s": )" +
         std::to_string(network_duration_s / 2.0) + R"( },
        "axes": [
          { "param": "seed", "values": [1176, 1177, 1178, 1179] }
        ]
      }
    ]
  })";
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, json_path] = bench::parse_flags(argc, argv, "BENCH_sweep.json");
  const obs::RunReport obs_report;

  bench::header("P8  bench_sweep",
                "config-driven scenario sweeps fan out over the worker pool "
                "with a merged report bitwise identical at every worker count");

  const auto plan =
      sweep::expand_sweep_config(io::Json::parse(make_config(smoke)));
  std::vector<std::string> distinct;
  for (const auto& instance : plan.instances)
    if (std::find(distinct.begin(), distinct.end(), instance.scenario) == distinct.end())
      distinct.push_back(instance.scenario);
  std::printf("sweep plan: %zu scenario instances over %zu experiments\n\n",
              plan.instances.size(), distinct.size());

  std::printf("%8s %10s %8s %14s %10s\n", "workers", "run[ms]", "failed",
              "speedup_vs_1t", "identical");
  struct Row {
    int workers = 0;
    double run_ms = 0;
    std::size_t num_failed = 0;
    double speedup_vs_1t = 0;
    bool identical = false;
  };
  std::vector<Row> rows;
  std::string bytes_1t;
  bool all_identical = true;
  bool any_failed = false;
  for (const int workers : {1, 2, 4}) {
    const auto t0 = Clock::now();
    const auto report = sweep::run_sweep(plan, workers);
    Row row;
    row.workers = workers;
    row.run_ms = ms_since(t0);
    row.num_failed = report.num_failed;
    const std::string bytes = report.json.dump(2);
    if (workers == 1) bytes_1t = bytes;
    row.identical = bytes == bytes_1t;
    row.speedup_vs_1t = row.run_ms > 0 ? rows.empty()
                                             ? 1.0
                                             : rows.front().run_ms / row.run_ms
                                       : 0.0;
    all_identical = all_identical && row.identical;
    any_failed = any_failed || row.num_failed != 0;
    rows.push_back(row);
    std::printf("%8d %10.1f %8zu %14.2f %10s\n", row.workers, row.run_ms,
                row.num_failed, row.speedup_vs_1t, row.identical ? "yes" : "NO");
  }

  using qfc::io::Json;
  Json json_rows = Json::make_array();
  for (const Row& r : rows)
    json_rows.push_back(Json::make_object({{"kernel", "sweep"},
                                           {"n", r.workers},
                                           {"instances", plan.instances.size()},
                                           {"run_ms", r.run_ms},
                                           {"num_failed", r.num_failed},
                                           {"speedup_vs_1t", r.speedup_vs_1t},
                                           {"identical", r.identical}}));
  bench::write_envelope(json_path, "sweep", smoke,
                        {{"rows", std::move(json_rows)},
                         {"instances", plan.instances.size()},
                         {"deterministic", all_identical},
                         {"obs", obs_report.json()}});

  const bool ok = all_identical && !any_failed;
  bench::verdict(
      ok, std::to_string(plan.instances.size()) +
              " scenario instances: merged report " +
              (all_identical ? "bitwise identical at 1/2/4 workers"
                             : "DIVERGED across worker counts") +
              (any_failed ? ", with scenario failures" : ", no failures"));
  return ok ? 0 : 1;
}
