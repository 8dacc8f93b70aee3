// Perf bench for the many-user QKD network façade (qfc::core::QkdNetwork):
// user-count scaling rows for a multi-distance network simulated from one
// shared streaming engine run, each row carrying a bitwise determinism
// flag (full report of two independent default runs), plus the bounded-memory
// probe the ISSUE gates in CI — a 256-user network's peak RSS must stay
// flat across a 10x duration increase (bounded_rss), because the windowed
// streamer discards consumed events as the online CAR accumulator
// resolves them.
//
// The probe runs FIRST: getrusage's ru_maxrss is monotonic, so the
// 256-user streamed runs must set the process RSS peak before the scaling
// sweep touches anything else.
//
// Usage: bench_qkd_network [--smoke] [--json PATH] [--help]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/obs/obs.hpp"

namespace {

using namespace qfc;
using Clock = std::chrono::steady_clock;
using bench::peak_rss_kb;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A comb wide enough for the many-user story: 64 symmetric channel pairs
/// (128 comb lines), so 256 users land 4-deep per pair under round-robin
/// assignment. High-k pairs carry the phase-matching-decayed rates the
/// source model assigns them.
core::TimebinExperiment make_wide_experiment() {
  const auto comb = core::QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulse);
  core::TimebinConfig cfg;
  cfg.pump = core::TimebinConfig::make_default_pump(comb.device());
  cfg.num_channel_pairs = 64;
  return comb.timebin(cfg);
}

core::QkdNetworkConfig make_network(std::size_t users, double window_s) {
  auto cfg = core::QkdNetworkConfig::uniform(users, /*max_distance_km=*/100.0);
  cfg.stream_window_s = window_s;
  for (auto& user : cfg.users) user.crosstalk_leakage = 0.01;
  return cfg;
}

bool reports_identical(const core::QkdNetworkReport& a,
                       const core::QkdNetworkReport& b) {
  if (a.users.size() != b.users.size()) return false;
  for (std::size_t u = 0; u < a.users.size(); ++u) {
    if (a.users[u].car.coincidences != b.users[u].car.coincidences) return false;
    if (a.users[u].car.accidentals != b.users[u].car.accidentals) return false;
    // A user without coincidences has a NaN QBER on both sides.
    const double qa = a.users[u].qber, qb = b.users[u].qber;
    if (!(qa == qb || (std::isnan(qa) && std::isnan(qb)))) return false;
    if (a.users[u].secret_key_rate_bps != b.users[u].secret_key_rate_bps)
      return false;
  }
  return a.total_key_rate_bps == b.total_key_rate_bps &&
         a.users_with_key == b.users_with_key && a.users_no_data == b.users_no_data;
}

struct NetworkRow {
  std::size_t users = 0;
  double run_ms = 0;
  std::size_t windows = 0;
  std::size_t users_with_key = 0;
  double total_key_rate_bps = 0;
  double worst_qber = 0;
  bool deterministic = false;
};

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, json_path] =
      bench::parse_flags(argc, argv, "BENCH_qkd_network.json");
  const obs::RunReport obs_report;

  bench::header("P7  bench_qkd_network",
                "hundreds of users keyed from one comb in a single shared "
                "streaming engine pass: flat peak RSS across a 10x duration "
                "increase at 256 users, per-user reports bitwise identical "
                "run to run");

  const auto exp = make_wide_experiment();
  const double duration_s = smoke ? 0.01 : 0.05;
  const double window_s = duration_s / 10.0;

  // Bounded-memory probe at 256 users, multi-distance (0..100 km spread):
  // the duration-D run sets the RSS peak; the 10x-D run with the same
  // stream window must not move it by more than 10%.
  // The probe runs untraced: obs trace buffers grow with the run's duration
  // and would count against the flat-RSS bound. Its spans are therefore
  // absent from a QFC_OBS_TRACE trace.
  const bool tracing = obs::tracing_enabled();
  obs::enable_tracing(false);
  const core::QkdNetwork probe(exp, make_network(256, window_s));
  auto t0 = Clock::now();
  const auto probe_base = probe.run(duration_s);
  const double probe_base_ms = ms_since(t0);
  const long rss_base_kb = peak_rss_kb();
  t0 = Clock::now();
  const auto probe_10x = probe.run(10.0 * duration_s);
  const double probe_10x_ms = ms_since(t0);
  const long rss_10x_kb = peak_rss_kb();
  obs::enable_tracing(tracing);
  const bool bounded_rss =
      rss_base_kb > 0 && rss_10x_kb <= rss_base_kb + rss_base_kb / 10;
  std::printf(
      "bounded-memory probe (256 users, window %.4g s): %.2f s -> %ld KB "
      "(%zu windows), %.2f s -> %ld KB (%zu windows): %s\n",
      window_s, duration_s, rss_base_kb, probe_base.stream_windows,
      10.0 * duration_s, rss_10x_kb, probe_10x.stream_windows,
      bounded_rss ? "flat (bounded)" : "GREW > 10%");

  // User-count scaling: one shared run per row, timed, then re-run on a
  // fresh network for the bitwise determinism flag the CI gate watches.
  std::printf("\nduration per run: %.3f s, stream window %.4g s\n", duration_s,
              window_s);
  std::printf("%8s %10s %9s %8s %16s %11s %14s\n", "users", "run[ms]", "windows",
              "w/ key", "key rate[bit/s]", "worst QBER", "deterministic");
  std::vector<NetworkRow> rows;
  bool all_deterministic = true;
  for (const std::size_t users : {16ul, 64ul, 256ul}) {
    auto cfg = make_network(users, window_s);
    const core::QkdNetwork net(exp, cfg);
    t0 = Clock::now();
    const auto report = net.run(duration_s);
    const double run_ms = ms_since(t0);

    const auto again = core::QkdNetwork(exp, cfg).run(duration_s);

    NetworkRow row;
    row.users = users;
    row.run_ms = run_ms;
    row.windows = report.stream_windows;
    row.users_with_key = report.users_with_key;
    row.total_key_rate_bps = report.total_key_rate_bps;
    row.worst_qber = report.worst_qber;
    row.deterministic = reports_identical(report, again);
    all_deterministic = all_deterministic && row.deterministic;
    rows.push_back(row);
    std::printf("%8zu %10.1f %9zu %8zu %16.1f %11.3f %14s\n", row.users,
                row.run_ms, row.windows, row.users_with_key,
                row.total_key_rate_bps, row.worst_qber,
                row.deterministic ? "yes" : "NO");
  }

  using qfc::io::Json;
  Json json_rows = Json::make_array();
  json_rows.push_back(Json::make_object({{"kernel", "network_rss"},
                                         {"n", 256},
                                         {"window_s", window_s},
                                         {"duration_s", duration_s},
                                         {"base_ms", probe_base_ms},
                                         {"ten_x_ms", probe_10x_ms},
                                         {"rss_base_kb", rss_base_kb},
                                         {"rss_10x_kb", rss_10x_kb},
                                         {"bounded_rss", bounded_rss}}));
  for (const NetworkRow& r : rows)
    json_rows.push_back(Json::make_object({{"kernel", "network"},
                                           {"n", r.users},
                                           {"run_ms", r.run_ms},
                                           {"windows", r.windows},
                                           {"users_with_key", r.users_with_key},
                                           {"total_key_rate_bps", r.total_key_rate_bps},
                                           {"worst_qber", r.worst_qber},
                                           {"deterministic", r.deterministic}}));
  bench::write_envelope(json_path, "qkd_network", smoke,
                        {{"rows", std::move(json_rows)},
                         {"duration_s", duration_s},
                         {"bounded_rss", bounded_rss},
                         {"deterministic", all_deterministic},
                         {"max_rss_kb", peak_rss_kb()},
                         {"obs", obs_report.json()}});

  const bool ok = bounded_rss && all_deterministic &&
                  rows.back().users_with_key > 0;
  bench::verdict(
      ok, std::string("256-user shared streaming run: RSS ") +
              (bounded_rss ? "bounded" : "UNBOUNDED") + " across 10x duration, "
              "reports " +
              (all_deterministic ? "bitwise run-to-run identical"
                                 : "NOT run-to-run identical") +
              ", " + std::to_string(rows.back().users_with_key) +
              "/256 users with positive key");
  return ok ? 0 : 1;
}
