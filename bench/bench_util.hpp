#pragma once

// Shared helpers for the reproduction benches. Each bench prints a header
// naming the paper claim, the regenerated rows, and a PASS/CHECK verdict on
// the claim's "shape" (see EXPERIMENTS.md). The perf benches additionally
// emit one shared machine-readable JSON envelope ({bench, mode, rows, ...})
// so their BENCH_*.json trajectories stay schema-compatible run over run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "qfc/io/json.hpp"

namespace bench {

inline void header(const char* id, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id);
  std::printf("paper claim: %s\n", claim);
  std::printf("--------------------------------------------------------------\n");
}

inline void verdict(bool ok, const std::string& detail) {
  std::printf("--------------------------------------------------------------\n");
  std::printf("[%s] %s\n\n", ok ? "PASS" : "CHECK", detail.c_str());
}

/// Shared `[--smoke] [--json PATH] [--help]` parsing for the perf benches.
/// The --json default is the repo-root baseline name committed for this
/// bench (BENCH_<name>.json); CI regenerates a fresh copy under build/ and
/// gates merges with scripts/check_bench.py against the committed file.
struct Flags {
  bool smoke = false;
  std::string json_path;
};

inline Flags parse_flags(int argc, char** argv, const char* default_json) {
  Flags f;
  f.json_path = default_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: %s [--smoke] [--json PATH]\n"
          "  --smoke      reduced sweep for CI smoke runs\n"
          "  --json PATH  write the machine-readable result envelope\n"
          "               (default: %s — the committed repo-root baseline name).\n"
          "\n"
          "CI gating (scripts/check_bench.py): local/dev runs are gated in\n"
          "absolute mode (a matched row slowing down by more than 35%% on any\n"
          "*_ms field fails); the GitHub bench job passes --ratios-only, which\n"
          "ignores absolute ms on the noisy shared runners and instead gates\n"
          "the speedup/ratio columns (e.g. the engine-vs-legacy \"speedup\" and\n"
          "the thread-scaling \"speedup_vs_1t\" rows) plus the\n"
          "identical/match/deterministic flags, which must never go false.\n"
          "Rows are matched on kernel/emission/threads/n, so the 1/2/4-worker\n"
          "thread-scaling rows gate independently.\n"
          "\n"
          "observability (qfc::obs — see src/qfc/obs/README.md):\n"
          "  QFC_OBS_TRACE=PATH    record tracing spans (engine.generate,\n"
          "                        pool.work, linalg kernels, ...) and write a\n"
          "                        Chrome trace-event JSON to PATH at exit;\n"
          "                        open it in chrome://tracing or Perfetto.\n"
          "  QFC_OBS_METRICS=PATH  record counters and gauges (per-worker\n"
          "                        busy-ns, GEMM flops, Jacobi rotations, ...)\n"
          "                        and write the registry JSON to PATH at exit.\n"
          "Either variable also embeds a run-scoped \"obs\" metrics snapshot in\n"
          "the bench's JSON envelope. Both default off; when unset the\n"
          "instrumentation is one relaxed-atomic branch and rows are unaffected.\n",
          argv[0], default_json);
      std::exit(0);
    }
    if (std::strcmp(argv[i], "--smoke") == 0) f.smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) f.json_path = argv[++i];
  }
  return f;
}

/// Writes the shared JSON envelope {"bench": name, "mode": "smoke" or
/// "full", "nproc": the host's hardware thread count, then `members` in
/// order: "rows" first, then any top-level summary members}. "nproc" states
/// the host a row was recorded on; scripts/check_bench.py does not gate it.
inline void write_envelope(const std::string& path, const char* bench_name, bool smoke,
                           qfc::io::Json::Object members) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::printf("could not write %s\n", path.c_str());
    return;
  }
  members.insert(members.begin(),
                 {{"bench", bench_name},
                  {"mode", smoke ? "smoke" : "full"},
                  {"nproc", std::thread::hardware_concurrency()}});
  out << qfc::io::Json::make_object(std::move(members)).dump(2) << '\n';
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace bench
