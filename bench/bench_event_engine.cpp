// Perf bench for the batched columnar event engine: full n-channel-pair
// CAR (coincidence) matrix, legacy per-channel path (per-channel streams +
// n² pairwise measure_car re-scans) vs EventEngine + single merge-sweep
// car_matrix, engine-only rows for the pulsed and piecewise-rate emission
// modes, an analysis row (the serial car_matrix / correlate_all sweeps over
// the largest table), and streaming rows: a
// bounded-memory probe (peak RSS must stay flat across a 10x run-length
// increase — the bounded_rss flag) plus a window-size sweep of the
// streamed generation + online CAR path, and car_pairs rows timing the
// diagonal CAR accumulator against the full matrix. Also checks that the two CW
// paths produce identical cells, that every emission mode is bitwise
// invariant across generation thread counts, and that every streamed CAR
// (and every diagonal cell) is bitwise identical to the batch one.
//
// Usage: bench_event_engine [--smoke] [--json PATH] [--help]
//   --smoke   smaller durations / channel counts (CI)
//   --json    write machine-readable results (default BENCH_event_engine.json;
//             gated in CI by scripts/check_bench.py — see --help)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "qfc/detect/channel_rng.hpp"
#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/detector.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/detect/streaming.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace {

using namespace qfc;
using Clock = std::chrono::steady_clock;

/// Peak resident set size so far (getrusage ru_maxrss, kilobytes on Linux),
/// or 0 where unavailable — groundwork for the streaming engine's fixed-RSS
/// claim: the full-table rows recorded here are the baseline to beat.
long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return ru.ru_maxrss / 1024;  // macOS reports bytes
#else
    return ru.ru_maxrss;
#endif
  }
#endif
  return 0;
}

constexpr double kWindow = 8e-9;
constexpr double kSpacing = 100e-9;
constexpr std::uint64_t kSeed = 20170327;

std::vector<detect::ChannelPairSpec> make_specs(int n) {
  std::vector<detect::ChannelPairSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    detect::ChannelPairSpec s;
    s.pair_rate_hz = 40e3 + 2e3 * (k % 7);  // mild channel-to-channel ripple
    s.linewidth_hz = 110e6;
    s.transmission_signal = 0.8;
    s.transmission_idler = 0.78;
    s.detector_signal.efficiency = 0.2;
    s.detector_signal.dark_rate_hz = 12e3;
    s.detector_signal.jitter_sigma_s = 120e-12;
    s.detector_signal.dead_time_s = 10e-6;
    s.detector_idler = s.detector_signal;
    specs.push_back(s);
  }
  return specs;
}

/// Pulsed double-pulse emission at the same mean pair rate and detector
/// chain as make_specs, locked to a 16.8 MHz train with early/late bins.
std::vector<detect::ChannelPairSpec> make_pulsed_specs(int n) {
  auto specs = make_specs(n);
  for (auto& s : specs) {
    s.emission = detect::EmissionMode::Pulsed;
    s.pulsed.repetition_rate_hz = 16.8e6;
    s.pulsed.mean_pairs_per_pulse = s.pair_rate_hz / s.pulsed.repetition_rate_hz;
    s.pulsed.bin_separation_s = 20e-9;
    s.pulsed.pulse_sigma_s = 1.5e-9;
    s.pair_rate_hz = 0;
  }
  return specs;
}

/// Drifting-source schedule: 8 segments ramping the pair rate 0.5x..1.5x
/// around make_specs' mean, with background/dark drift riding along.
std::vector<detect::ChannelPairSpec> make_piecewise_specs(int n, double duration_s) {
  auto specs = make_specs(n);
  const int num_segments = 8;
  for (auto& s : specs) {
    s.emission = detect::EmissionMode::PiecewiseRates;
    const double base = s.pair_rate_hz;
    s.pair_rate_hz = 0;
    for (int i = 0; i < num_segments; ++i) {
      const double x = static_cast<double>(i) / (num_segments - 1);  // 0..1 ramp
      detect::RateSegment seg;
      seg.duration_s = duration_s / num_segments;
      seg.pair_rate_hz = base * (0.5 + x);
      seg.background_rate_signal_hz = 4e3 * x;
      seg.background_rate_idler_hz = 4e3 * (1.0 - x);
      seg.dark_rate_signal_hz = 2e3 * x;
      seg.dark_rate_idler_hz = 2e3 * x;
      s.segments.push_back(seg);
    }
  }
  return specs;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Legacy path: per-channel streams through the single-stream kernels
/// (same fork-per-channel and per-stage sub-stream seeding as the engine,
/// so the streams match), then n x n pairwise measure_car re-scans of the
/// full click vectors.
std::vector<detect::CarResult> legacy_car_matrix(
    const std::vector<detect::ChannelPairSpec>& specs, double duration_s) {
  const std::size_t n = specs.size();
  std::vector<std::vector<double>> sig(n), idl(n);
  const std::vector<double> no_extra_darks;
  rng::Xoshiro256 master(kSeed);
  for (std::size_t c = 0; c < n; ++c) {
    rng::Xoshiro256 g = master.fork(static_cast<std::uint64_t>(c + 1));
    detect::detail::ChannelRngs r = detect::detail::fork_channel_rngs(g);
    detect::PairStreamParams p;
    p.pair_rate_hz = specs[c].pair_rate_hz;
    p.linewidth_hz = specs[c].linewidth_hz;
    p.duration_s = duration_s;
    p.transmission_a = specs[c].transmission_signal;
    p.transmission_b = specs[c].transmission_idler;
    const auto photons = detect::generate_pair_arrivals(p, r.pair);
    sig[c] = detect::SinglePhotonDetector(specs[c].detector_signal)
                 .detect(photons.a, no_extra_darks, duration_s, r.det_a, r.dark_a);
    idl[c] = detect::SinglePhotonDetector(specs[c].detector_idler)
                 .detect(photons.b, no_extra_darks, duration_s, r.det_b, r.dark_b);
  }
  std::vector<detect::CarResult> cells;
  cells.reserve(n * n);
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t i = 0; i < n; ++i)
      cells.push_back(detect::measure_car(sig[s], idl[i], kWindow, kSpacing));
  return cells;
}

detect::CarMatrix engine_car_matrix(const std::vector<detect::ChannelPairSpec>& specs,
                                    double duration_s, int num_threads,
                                    std::size_t* total_events = nullptr) {
  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = kSeed;
  ec.num_threads = num_threads;
  const detect::EngineResult events = detect::EventEngine(ec).run(specs);
  if (total_events != nullptr) *total_events = events.signal.size() + events.idler.size();
  return detect::car_matrix(events.signal, events.idler, kWindow, kSpacing);
}

bool cells_identical(const std::vector<detect::CarResult>& legacy,
                     const detect::CarMatrix& engine) {
  if (legacy.size() != engine.cells.size()) return false;
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    if (legacy[i].coincidences != engine.cells[i].coincidences) return false;
    if (legacy[i].accidentals != engine.cells[i].accidentals) return false;
  }
  return true;
}

struct Row {
  int n = 0;
  double legacy_ms = 0;
  double engine_ms = 0;
  double speedup = 0;
  bool identical = false;
  std::size_t events = 0;       ///< detected clicks in the engine tables
  double events_per_sec = 0;    ///< clicks through generate+analyze per wall second
  long max_rss_kb = 0;          ///< peak RSS after this row (monotonic across rows)
};

/// Engine-only row for the pulsed / piecewise emission modes (no legacy
/// path exists for them): run time plus a per-row thread-count
/// determinism check (1 vs 4 workers, bitwise).
struct ModeRow {
  const char* emission = "";
  int n = 0;
  double engine_ms = 0;
  bool deterministic = false;
};

ModeRow bench_mode(const char* emission, const std::vector<detect::ChannelPairSpec>& specs,
                   double duration_s) {
  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = kSeed;

  ec.num_threads = 0;
  auto t0 = Clock::now();
  const detect::EngineResult events = detect::EventEngine(ec).run(specs);
  detect::car_matrix(events.signal, events.idler, kWindow, kSpacing);
  const double engine_ms = ms_since(t0);

  ec.num_threads = 1;
  const auto r1 = detect::EventEngine(ec).run(specs);
  ec.num_threads = 4;
  const auto r4 = detect::EventEngine(ec).run(specs);

  ModeRow row;
  row.emission = emission;
  row.n = static_cast<int>(specs.size());
  row.engine_ms = engine_ms;
  row.deterministic = r1.signal == r4.signal && r1.idler == r4.idler;
  return row;
}

/// Analysis row: the car_matrix + correlate_all sweeps over one fixed
/// table. The sweeps are serial; `threads` stays 1 as the baseline row key.
struct AnalysisRow {
  int threads = 1;
  double car_ms = 0;
  double correlate_ms = 0;
};

AnalysisRow bench_analysis(const detect::EngineResult& events) {
  AnalysisRow row;
  auto t0 = Clock::now();
  detect::car_matrix(events.signal, events.idler, kWindow, kSpacing);
  row.car_ms = ms_since(t0);
  t0 = Clock::now();
  detect::correlate_all(events.signal, events.idler, 1e-9, 50e-9);
  row.correlate_ms = ms_since(t0);
  return row;
}

bool car_cells_identical(const detect::CarMatrix& a, const detect::CarMatrix& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].coincidences != b.cells[i].coincidences) return false;
    if (a.cells[i].accidentals != b.cells[i].accidentals) return false;
  }
  return true;
}

/// Streamed generation + online CAR: windowed engine into the streaming
/// accumulator, consumed windows discarded as they resolve.
detect::CarMatrix run_streamed_car(const std::vector<detect::ChannelPairSpec>& specs,
                                   double duration_s, double window_s,
                                   std::size_t* events_out = nullptr) {
  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = kSeed;
  detect::StreamConfig sc;
  sc.window_s = window_s;
  detect::EventStreamer streamer(ec, sc, specs);
  detect::StreamingCarAccumulator car(kWindow, kSpacing);
  detect::StreamWindow w;
  std::size_t events = 0;
  while (streamer.next(w)) {
    events += w.events.signal.size() + w.events.idler.size();
    car.push(w);
  }
  if (events_out != nullptr) *events_out = events;
  return car.finish();
}

/// Diagonal-CAR row: the same streamed windows folded into the full-matrix StreamingCarAccumulator (matrix_ms) and into the
/// diagonal StreamingCarPairsAccumulator (pairs_ms), push + finish, best of
/// three; `identical` when every diagonal cell matches bitwise.
struct CarPairsRow {
  int n = 0;
  double matrix_ms = 0;
  double pairs_ms = 0;
  double speedup = 0;
  bool identical = false;
};

CarPairsRow bench_car_pairs(int n, double duration_s) {
  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = kSeed;
  detect::StreamConfig sc;
  sc.window_s = duration_s / 20.0;
  detect::EventStreamer streamer(ec, sc, make_specs(n));
  std::vector<detect::StreamWindow> windows;
  for (detect::StreamWindow w; streamer.next(w);) windows.push_back(std::move(w));

  CarPairsRow row;
  row.n = n;
  row.matrix_ms = row.pairs_ms = 1e300;
  detect::CarMatrix matrix;
  std::vector<detect::CarResult> pairs;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    detect::StreamingCarAccumulator full(kWindow, kSpacing);
    for (const auto& w : windows) full.push(w);
    matrix = full.finish();
    row.matrix_ms = std::min(row.matrix_ms, ms_since(t0));

    t0 = Clock::now();
    detect::StreamingCarPairsAccumulator diag(kWindow, kSpacing);
    for (const auto& w : windows) diag.push(w);
    pairs = diag.finish();
    row.pairs_ms = std::min(row.pairs_ms, ms_since(t0));
  }
  row.speedup = row.pairs_ms > 0 ? row.matrix_ms / row.pairs_ms : 0;
  row.identical = pairs.size() == static_cast<std::size_t>(n);
  for (std::size_t k = 0; row.identical && k < pairs.size(); ++k) {
    const detect::CarResult& want = matrix.at(k, k);
    row.identical = pairs[k].coincidences == want.coincidences &&
                    pairs[k].accidentals == want.accidentals &&
                    pairs[k].car == want.car && pairs[k].car_err == want.car_err;
  }
  return row;
}

/// Streaming window-size sweep row: streamed run wall time and throughput
/// at one window size, with the bitwise CAR-parity flag vs the batch path.
struct StreamRow {
  double window_s = 0;
  double stream_ms = 0;
  std::size_t events = 0;
  double events_per_sec = 0;
  long max_rss_kb = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, json_path] =
      bench::parse_flags(argc, argv, "BENCH_event_engine.json");

  // Run-scoped metrics aggregate for the "obs" envelope member. Stays empty
  // unless obs is enabled (QFC_OBS_TRACE / QFC_OBS_METRICS, see --help).
  const obs::RunReport obs_report;

  bench::header("P1  bench_event_engine",
                "batched columnar engine >= 5x faster than the legacy "
                "per-channel path on a 10-pair coincidence matrix, bitwise "
                "thread-count invariant");

  const double duration_s = smoke ? 0.5 : 2.0;
  const std::vector<int> channel_counts =
      smoke ? std::vector<int>{1, 2, 5, 10} : std::vector<int>{1, 2, 5, 10, 20, 35, 50};

  // Streaming bounded-memory probe. ru_maxrss is monotonic, so these rows
  // run before anything else builds full batch tables: the streamed run at
  // duration D sets the RSS peak, and re-running at 10 D with the same
  // window must not move it (windows are discarded as the accumulator
  // resolves them) — flat peak RSS across the 10x growth IS the
  // bounded-memory claim (bounded_rss, gated by check_bench.py).
  const int probe_n = smoke ? 5 : 10;
  const double probe_duration_s = smoke ? 0.3 : 1.0;
  const double probe_window_s = probe_duration_s / 20.0;
  const auto probe_specs = make_specs(probe_n);
  std::size_t probe_events = 0, probe_events_10x = 0;
  auto t_probe = Clock::now();
  run_streamed_car(probe_specs, probe_duration_s, probe_window_s, &probe_events);
  const double probe_base_ms = ms_since(t_probe);
  const long rss_base_kb = peak_rss_kb();
  t_probe = Clock::now();
  run_streamed_car(probe_specs, 10.0 * probe_duration_s, probe_window_s,
                   &probe_events_10x);
  const double probe_10x_ms = ms_since(t_probe);
  const long rss_10x_kb = peak_rss_kb();
  const bool bounded_rss =
      rss_base_kb > 0 && rss_10x_kb <= rss_base_kb + rss_base_kb / 10;
  std::printf(
      "streaming bounded-memory probe (n=%d, window %.3g s): %.1f s -> %ld KB "
      "(%zu ev), %.1f s -> %ld KB (%zu ev): %s\n",
      probe_n, probe_window_s, probe_duration_s, rss_base_kb, probe_events,
      10.0 * probe_duration_s, rss_10x_kb, probe_events_10x,
      bounded_rss ? "flat (bounded)" : "GREW > 10%");

  std::printf("duration per run: %.2f s, window %.0f ns, spacing %.0f ns\n",
              duration_s, kWindow * 1e9, kSpacing * 1e9);
  std::printf("%6s %12s %12s %9s %10s %17s %12s\n", "n", "legacy[ms]", "engine[ms]",
              "speedup", "identical", "throughput", "peak RSS");

  std::vector<Row> rows;
  double speedup_n10 = 0;
  bool all_identical = true;
  for (const int n : channel_counts) {
    const auto specs = make_specs(n);

    auto t0 = Clock::now();
    const auto legacy = legacy_car_matrix(specs, duration_s);
    const double legacy_ms = ms_since(t0);

    t0 = Clock::now();
    std::size_t total_events = 0;
    const auto engine = engine_car_matrix(specs, duration_s, /*num_threads=*/0,
                                          &total_events);
    const double engine_ms = ms_since(t0);

    Row row;
    row.n = n;
    row.legacy_ms = legacy_ms;
    row.engine_ms = engine_ms;
    row.speedup = engine_ms > 0 ? legacy_ms / engine_ms : 0;
    row.identical = cells_identical(legacy, engine);
    row.events = total_events;
    row.events_per_sec =
        engine_ms > 0 ? static_cast<double>(total_events) / (engine_ms / 1e3) : 0;
    row.max_rss_kb = peak_rss_kb();
    rows.push_back(row);
    all_identical = all_identical && row.identical;
    if (n == 10) speedup_n10 = row.speedup;

    std::printf("%6d %12.1f %12.1f %8.1fx %10s %12.3g ev/s %9ld KB\n", n, legacy_ms,
                engine_ms, row.speedup, row.identical ? "yes" : "NO",
                row.events_per_sec, row.max_rss_kb);
  }

  // Determinism: same seed, different thread counts -> bitwise equal tables.
  const auto specs10 = make_specs(10);
  detect::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.seed = kSeed;
  ec.num_threads = 1;
  const auto r1 = detect::EventEngine(ec).run(specs10);
  ec.num_threads = 4;
  const auto r4 = detect::EventEngine(ec).run(specs10);
  const bool deterministic = r1.signal == r4.signal && r1.idler == r4.idler;
  std::printf("thread-count determinism (1 vs 4 threads): %s\n",
              deterministic ? "bitwise identical" : "MISMATCH");

  // Emission-mode rows: pulsed (double-pulse train) and piecewise-rate
  // (drifting source) engine runs, each with its own determinism check.
  std::printf("\n%10s %6s %12s %14s\n", "emission", "n", "engine[ms]", "deterministic");
  std::vector<ModeRow> mode_rows;
  bool modes_deterministic = true;
  for (const int n : channel_counts) {
    mode_rows.push_back(bench_mode("pulsed", make_pulsed_specs(n), duration_s));
    mode_rows.push_back(
        bench_mode("piecewise", make_piecewise_specs(n, duration_s), duration_s));
  }
  for (const ModeRow& r : mode_rows) {
    modes_deterministic = modes_deterministic && r.deterministic;
    std::printf("%10s %6d %12.1f %14s\n", r.emission, r.n, r.engine_ms,
                r.deterministic ? "yes" : "NO");
  }

  // Analysis row: the merge-sweeps over the largest CW table of the sweep.
  const int n_analysis = channel_counts.back();
  detect::EngineConfig analysis_ec;
  analysis_ec.duration_s = duration_s;
  analysis_ec.seed = kSeed;
  const auto analysis_events =
      detect::EventEngine(analysis_ec).run(make_specs(n_analysis));
  const AnalysisRow analysis = bench_analysis(analysis_events);
  std::printf("\nanalysis (n=%d): car_matrix %.1f ms, correlate_all %.1f ms\n", n_analysis,
              analysis.car_ms, analysis.correlate_ms);

  // Streaming window-size sweep: streamed generation + online CAR at
  // several window sizes over the n=10 CW workload, each row checked
  // bitwise against one batch run + batch car_matrix.
  std::size_t batch_events = 0;
  auto t0s = Clock::now();
  const auto batch_car =
      engine_car_matrix(specs10, duration_s, /*num_threads=*/0, &batch_events);
  const double batch_ms = ms_since(t0s);
  std::vector<StreamRow> stream_rows;
  bool stream_identical = true;
  std::printf("\nstreaming window sweep (n=10, batch %.1f ms)\n", batch_ms);
  std::printf("%12s %12s %17s %12s %10s\n", "window[s]", "stream[ms]", "throughput",
              "peak RSS", "identical");
  for (const double frac : {1.0 / 50.0, 1.0 / 10.0, 1.0 / 2.0}) {
    StreamRow r;
    r.window_s = duration_s * frac;
    t0s = Clock::now();
    const auto streamed = run_streamed_car(specs10, duration_s, r.window_s, &r.events);
    r.stream_ms = ms_since(t0s);
    r.events_per_sec =
        r.stream_ms > 0 ? static_cast<double>(r.events) / (r.stream_ms / 1e3) : 0;
    r.max_rss_kb = peak_rss_kb();
    r.identical = car_cells_identical(streamed, batch_car);
    stream_identical = stream_identical && r.identical;
    stream_rows.push_back(r);
    std::printf("%12.4f %12.1f %12.3g ev/s %9ld KB %10s\n", r.window_s, r.stream_ms,
                r.events_per_sec, r.max_rss_kb, r.identical ? "yes" : "NO");
  }

  // Diagonal CAR vs full matrix over the same streamed windows, at the
  // 10-pair workload and at the 48-user QKD-network size.
  std::vector<CarPairsRow> pairs_rows;
  bool pairs_identical = true;
  std::printf("\ndiagonal CAR vs full matrix (20 windows)\n");
  std::printf("%6s %12s %12s %9s %10s\n", "n", "matrix[ms]", "pairs[ms]", "speedup",
              "identical");
  for (const int n : {10, 48}) {
    const CarPairsRow r = bench_car_pairs(n, duration_s);
    pairs_identical = pairs_identical && r.identical;
    pairs_rows.push_back(r);
    std::printf("%6d %12.1f %12.1f %8.1fx %10s\n", r.n, r.matrix_ms, r.pairs_ms, r.speedup,
                r.identical ? "yes" : "NO");
  }

  using qfc::io::Json;
  Json json_rows = Json::make_array();
  for (const Row& r : rows)
    json_rows.push_back(Json::make_object({{"emission", "cw"},
                                           {"n", r.n},
                                           {"legacy_ms", r.legacy_ms},
                                           {"engine_ms", r.engine_ms},
                                           {"speedup", r.speedup},
                                           {"identical", r.identical},
                                           {"events", r.events},
                                           {"events_per_sec", r.events_per_sec},
                                           {"max_rss_kb", r.max_rss_kb}}));
  for (const ModeRow& r : mode_rows)
    json_rows.push_back(Json::make_object({{"emission", r.emission},
                                           {"n", r.n},
                                           {"engine_ms", r.engine_ms},
                                           {"deterministic", r.deterministic}}));
  json_rows.push_back(Json::make_object({{"kernel", "analysis"},
                                         {"threads", analysis.threads},
                                         {"n", n_analysis},
                                         {"car_ms", analysis.car_ms},
                                         {"correlate_ms", analysis.correlate_ms}}));
  json_rows.push_back(Json::make_object({{"kernel", "streaming_rss"},
                                         {"n", probe_n},
                                         {"window_s", probe_window_s},
                                         {"duration_s", probe_duration_s},
                                         {"base_ms", probe_base_ms},
                                         {"ten_x_ms", probe_10x_ms},
                                         {"rss_base_kb", rss_base_kb},
                                         {"rss_10x_kb", rss_10x_kb},
                                         {"bounded_rss", bounded_rss}}));
  for (const StreamRow& r : stream_rows)
    json_rows.push_back(Json::make_object({{"kernel", "streaming"},
                                           {"n", 10},
                                           {"window_s", r.window_s},
                                           {"stream_ms", r.stream_ms},
                                           {"batch_ms", batch_ms},
                                           {"events", r.events},
                                           {"events_per_sec", r.events_per_sec},
                                           {"max_rss_kb", r.max_rss_kb},
                                           {"identical", r.identical}}));
  for (const CarPairsRow& r : pairs_rows)
    json_rows.push_back(Json::make_object({{"kernel", "car_pairs"},
                                           {"n", r.n},
                                           {"threads", 1},
                                           {"matrix_ms", r.matrix_ms},
                                           {"pairs_ms", r.pairs_ms},
                                           {"speedup", r.speedup},
                                           {"identical", r.identical}}));
  bench::write_envelope(json_path, "event_engine", smoke,
                        {{"rows", std::move(json_rows)},
                         {"duration_s", duration_s},
                         {"speedup_n10", speedup_n10},
                         {"deterministic", deterministic},
                         {"max_rss_kb", peak_rss_kb()},
                         {"obs", obs_report.json()}});

  // Exit code gates on correctness only (cell identity + thread-count
  // determinism in every emission mode + streaming parity and bounded
  // RSS); the speedup target is reported but
  // not allowed to fail CI on a noisy shared runner.
  const bool correct = all_identical && deterministic && modes_deterministic &&
                       stream_identical && pairs_identical && bounded_rss;
  const bool ok = correct && speedup_n10 >= 5.0;
  bench::verdict(ok, "n=10 speedup " + std::to_string(speedup_n10) + "x, cells " +
                         (all_identical ? "identical" : "DIFFER") + ", " +
                         (deterministic && modes_deterministic ? "thread-invariant"
                                                               : "NOT thread-invariant") +
                         ", streaming " +
                         (stream_identical ? "bitwise-parity" : "PARITY BROKEN") +
                         ", CAR diagonal " + (pairs_identical ? "identical" : "DIFFERS") +
                         ", RSS " + (bounded_rss ? "bounded" : "UNBOUNDED"));
  return correct ? 0 : 1;
}
