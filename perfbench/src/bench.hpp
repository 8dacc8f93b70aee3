#pragma once

/// \file bench.hpp
/// Shared declarations of the repository benchmark (perfbench/README.md):
/// timing and order statistics, the seeded workload configs, the layer
/// probes of the traced run, and the trace analysis.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qfc/io/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU time of the whole process (every thread), seconds.
double process_cpu_s();

double median(std::vector<double> v);

/// The highest percentile of a sample that still has at least `beyond`
/// samples above it, with the sample count it was taken from. With fewer
/// than beyond + 1 samples it is the maximum.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

std::uint64_t fnv1a64(std::string_view bytes);

// ------------------------------------------------------------ workloads.cpp

struct Workload {
  const char* name;
  /// Sweep workers requested; the run clamps it to nproc.
  int sweep_workers;
  /// Process-wide inner pool requests the workload pins
  /// (detect::set_analysis_threads / linalg::set_backend_threads);
  /// 0 leaves the library default of one thread per hardware thread.
  unsigned analysis_threads;
  unsigned backend_threads;
};

/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);
std::vector<std::string> workload_names();

/// The workload's sweep config. Every scenario seed in it is derived from
/// `seed`, so the same seed always gives the same config.
qfc::io::Json make_config(const Workload& w, std::uint64_t seed);

/// Physics sanity of a merged sweep report: one message per instance whose
/// result breaks a property the paper or the model guarantees (fidelity in
/// [0, 1], CHSH above the classical bound, ...). Empty when all hold.
std::vector<std::string> check_report(const qfc::io::Json& report);

// --------------------------------------------------------------- probes.cpp
// Each probe calls one layer's public functions directly, with the shapes
// of one scenario instance's parameter object, and times the calls. Spans
// named "bench.<layer>.<call>" surround the calls when tracing is on.

struct TomoProbe {
  double simulate_s = 0;  ///< tomo::simulate_counts, both pairs + four-qubit
  double mle2_s = 0;      ///< tomo::maximum_likelihood, both 2-qubit pairs
  double mle4_s = 0;      ///< tomo::maximum_likelihood, the 4-qubit state
  int iterations2 = 0;    ///< summed over the two pairs
  int iterations4 = 0;
  int converged = 0;      ///< of the three reconstructions
};
TomoProbe probe_tomo(const qfc::io::Json& four_photon_params);

struct LinalgProbe {
  double gemm16_us = 0;  ///< one 16x16 complex operator*
  double eig16_us = 0;   ///< one 16x16 hermitian_eig with vectors
};
LinalgProbe probe_linalg(std::uint64_t seed);

struct StreamProbe {
  double next_s = 0;      ///< EventStreamer::next, summed over windows
  double push_s = 0;      ///< StreamingCarAccumulator::push, summed
  double finish_s = 0;    ///< StreamingCarAccumulator::finish
  double network_run_s = 0;  ///< QkdNetwork::run on the same config
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t boundary_violations = 0;
  long long rss_growth_kb = 0;  ///< RSS after the last window - after the first
};
/// Medians over `reps` alternating repetitions of the streaming pipeline and
/// of QkdNetwork::run (counts from the first repetition).
StreamProbe probe_stream(const qfc::io::Json& qkd_network_params, int reps);

struct SplitProbe {
  double emit_s = 0;      ///< event_stream.hpp generators, every channel
  double detector_s = 0;  ///< SinglePhotonDetector::detect, both arms
  double merge_s = 0;     ///< merge_channels over the idler table
};
SplitProbe probe_split(const qfc::io::Json& qkd_network_params);

struct BatchProbe {
  double run_s = 0;         ///< EventEngine::run
  double car_matrix_s = 0;  ///< detect::car_matrix on its output
};
BatchProbe probe_batch(const qfc::io::Json& heralded_params);

// ---------------------------------------------------------------- trace.cpp

/// One complete span of the Chrome trace obs exports.
struct Span {
  std::string name;
  std::uint32_t tid = 0;
  double t0_us = 0;
  double dur_us = 0;
  double t1_us() const { return t0_us + dur_us; }
};

/// Parses obs::trace_json() output (one event per line).
std::vector<Span> parse_trace(const std::string& trace_json);

struct SelfTime {
  std::string name;  ///< span name, or layer name in by_layer()
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;  ///< total minus the time its direct children cover
};
/// Per span name, sorted by self time, largest first.
std::vector<SelfTime> self_times(const std::vector<Span>& spans);
/// The same rows folded into layers: engine.* -> detect, network.* -> core,
/// pool.* -> parallel, bench.<layer>.* -> <layer>, else the first component.
std::vector<SelfTime> by_layer(const std::vector<SelfTime>& rows);

/// Share of [t0, t1] covered by at least one span on any thread whose name
/// does not start with "bench." (the program's own spans).
double program_coverage(const std::vector<Span>& spans, double t0_us, double t1_us);

/// Distinct threads that recorded a span named `name` starting in [t0, t1].
std::size_t distinct_threads(const std::vector<Span>& spans, std::string_view name,
                             double t0_us, double t1_us);

}  // namespace perfbench
