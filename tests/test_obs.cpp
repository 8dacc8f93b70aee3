// Tests for qfc::obs — the zero-overhead-when-disabled observability layer:
// span recording/nesting/thread attribution in the Chrome trace export,
// counter correctness under 4-thread contention, the line-per-event trace
// layout perfbench parses, io::Json round-trips of both exports, RunReport
// deltas, file-export failures, the worker-pool and linalg instrumentation
// hooks, the one tomo.solve span per maximum-likelihood solve, and the
// contract that matters most: enabling or disabling obs never
// changes a single computed bit.

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/detect/event_engine.hpp"
#include "qfc/io/json.hpp"
#include "qfc/linalg/backend.hpp"
#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/parallel/worker_pool.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using namespace qfc;

/// Saves the obs enable mode on entry and restores it on exit (tests run
/// under CI legs that enable obs process-wide via QFC_OBS_TRACE), clearing
/// all recorded spans/metrics both ways so tests cannot see each other.
class ObsStateGuard {
 public:
  ObsStateGuard() : saved_(obs::detail::g_mode.load(std::memory_order_relaxed)) {
    obs::disable();
    obs::reset();
  }
  ~ObsStateGuard() {
    obs::reset();
    obs::detail::g_mode.store(saved_, std::memory_order_relaxed);
  }

 private:
  std::uint32_t saved_;
};

// ------------------------------------------------------ trace-line parsing

/// The lines of a trace_json() export.
std::vector<std::string_view> lines_of(const std::string& text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text.data() + pos, end - pos);
    pos = end + 1;
  }
  return lines;
}

/// The trace's events, each parsed alone from its own line the way perfbench
/// reads them: a line starting with {"name" is one event object, followed by
/// a comma unless it is the last.
std::vector<io::Json> parse_events(const std::string& trace) {
  std::vector<io::Json> events;
  for (std::string_view line : lines_of(trace)) {
    if (line.rfind("{\"name\"", 0) != 0) continue;
    if (line.back() == ',') line.remove_suffix(1);
    events.push_back(io::Json::parse(line));
  }
  return events;
}

std::string name_of(const io::Json& ev) { return ev.find("name")->string_value(); }
double number_of(const io::Json& ev, const char* key) { return ev.find(key)->number_value(); }

// ----------------------------------------------------------------- tests

TEST(Obs, DisabledMeansNoRecordingAnywhere) {
  ObsStateGuard guard;
  EXPECT_FALSE(obs::enabled());
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_FALSE(obs::metrics_enabled());

  obs::Counter& c = obs::counter("test.disabled.counter");
  c.add(41);
  c.increment();
  EXPECT_EQ(c.value(), 0u) << "disabled counter must not accumulate";
  obs::gauge("test.disabled.gauge").set(7);
  EXPECT_EQ(obs::gauge("test.disabled.gauge").value(), 0);

  { QFC_OBS_SPAN("test.disabled.span"); }
  EXPECT_EQ(parse_events(obs::trace_json()).size(), 0u);
}

TEST(Obs, EnableFlagsAreIndependent) {
  ObsStateGuard guard;
  obs::enable_tracing(true);
  EXPECT_TRUE(obs::tracing_enabled());
  EXPECT_FALSE(obs::metrics_enabled());
  obs::enable_tracing(false);
  obs::enable_metrics(true);
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_TRUE(obs::metrics_enabled());
  obs::enable();
  EXPECT_TRUE(obs::tracing_enabled() && obs::metrics_enabled());
  obs::disable();
  EXPECT_FALSE(obs::enabled());
}

TEST(Obs, CountersExactUnderContention) {
  ObsStateGuard guard;
  obs::enable_metrics(true);
  obs::Counter& c = obs::counter("test.contention.counter");

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Obs, SpanNestingAndThreadAttribution) {
  ObsStateGuard guard;
  obs::enable_tracing(true);

  {
    QFC_OBS_SPAN("test.outer", {{"answer", 42}});
    { QFC_OBS_SPAN("test.inner"); }
  }
  std::thread worker([] { QFC_OBS_SPAN("test.worker", {{"who", "worker"}}); });
  worker.join();

  const auto events = parse_events(obs::trace_json());
  ASSERT_EQ(events.size(), 3u);

  const auto find = [&](const char* name) -> const io::Json& {
    for (const auto& ev : events)
      if (name_of(ev) == name) return ev;
    ADD_FAILURE() << name << " span missing";
    return events.front();
  };
  const io::Json& outer = find("test.outer");
  const io::Json& inner = find("test.inner");
  const io::Json& remote = find("test.worker");

  // Nesting: the inner complete-event interval sits inside the outer one,
  // on the same thread.
  EXPECT_EQ(*inner.find("tid"), *outer.find("tid"));
  EXPECT_GE(number_of(inner, "ts"), number_of(outer, "ts"));
  EXPECT_LE(number_of(inner, "ts") + number_of(inner, "dur"),
            number_of(outer, "ts") + number_of(outer, "dur"));

  // Thread attribution: the worker's span carries a different tid.
  EXPECT_NE(*remote.find("tid"), *outer.find("tid"));

  // Arguments round-trip; a span without arguments has no args member.
  EXPECT_EQ(*outer.find("args"), io::Json::make_object({{"answer", 42}}));
  EXPECT_EQ(*remote.find("args"), io::Json::make_object({{"who", "worker"}}));
  EXPECT_EQ(inner.find("args"), nullptr);
}

TEST(Obs, TraceIsOneParseableEventPerLine) {
  // The layout perfbench's parse_trace relies on, with names that need
  // escaping: every line between the header and the footer is one event
  // that starts with {"name" and parses alone.
  ObsStateGuard guard;
  obs::enable_tracing(true);
  static constexpr const char* kNames[] = {"test.quote\"d", "test.back\\slash",
                                           "test.new\nline", "test.control\x01" "char"};
  { QFC_OBS_SPAN(kNames[0], {{"mode", "a\"b\\c\n"}, {"n", -3}}); }
  for (std::size_t i = 1; i < std::size(kNames); ++i) { QFC_OBS_SPAN(kNames[i]); }

  const std::string trace = obs::trace_json();
  const auto lines = lines_of(trace);
  ASSERT_EQ(lines.size(), std::size(kNames) + 2) << trace;
  EXPECT_EQ(lines.front(), "{\"traceEvents\":[");
  EXPECT_EQ(lines.back().rfind("]", 0), 0u) << lines.back();
  for (std::size_t i = 1; i + 1 < lines.size(); ++i)
    EXPECT_EQ(lines[i].rfind("{\"name\"", 0), 0u) << lines[i];

  const auto events = parse_events(trace);
  ASSERT_EQ(events.size(), std::size(kNames));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(name_of(events[i]), kNames[i]);
    EXPECT_TRUE(events[i].find("tid")->is_int());
  }
  EXPECT_EQ(*events[0].find("args"),
            io::Json::make_object({{"mode", "a\"b\\c\n"}, {"n", -3}}));

  const io::Json doc = io::Json::parse(trace);
  EXPECT_EQ(doc.find("traceEvents")->array_items().size(), std::size(kNames));
  EXPECT_EQ(*doc.find("otherData"), io::Json::make_object({{"dropped_events", 0}}));
}

TEST(Obs, ExportsAreValidJson) {
  ObsStateGuard guard;
  obs::enable_metrics(true);
  obs::counter("test.json.counter \"escaped\"").add(5);
  obs::gauge("test.json.gauge").set(-12);

  const io::Json metrics = io::Json::parse(obs::metrics_json());
  EXPECT_EQ(*metrics.find("counters")->find("test.json.counter \"escaped\""), io::Json(5));
  EXPECT_EQ(*metrics.find("gauges")->find("test.json.gauge"), io::Json(-12));

  // Empty registry/trace exports are valid JSON too.
  obs::reset();
  EXPECT_TRUE(io::Json::parse(obs::trace_json()).find("traceEvents")->array_items().empty());
  EXPECT_NO_THROW(io::Json::parse(obs::metrics_json()));
}

TEST(Obs, RunReportRendersDeltas) {
  ObsStateGuard guard;
  obs::enable_metrics(true);
  obs::counter("test.report.counter").add(100);

  const obs::RunReport report;
  obs::counter("test.report.counter").add(7);

  const io::Json json = report.json();
  EXPECT_EQ(*json.find("enabled"), io::Json(true));
  EXPECT_TRUE(json.find("wall_ms")->is_number());
  EXPECT_EQ(*json.find("counters")->find("test.report.counter"), io::Json(7))
      << "RunReport must render the delta since construction, got: " << json.dump();
}

TEST(Obs, RunReportAfterResetReportsCurrentValue) {
  // A reset between construction and render leaves the counter below its
  // baseline; the delta would wrap to 2^64 - 7.
  ObsStateGuard guard;
  obs::enable_metrics(true);
  obs::counter("test.report.reset").add(10);

  const obs::RunReport report;
  obs::reset();
  obs::counter("test.report.reset").add(3);

  const io::Json json = report.json();
  EXPECT_EQ(*json.find("counters")->find("test.report.reset"), io::Json(3)) << json.dump();
}

TEST(Obs, FileExportReportsWriteFailure) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
  ObsStateGuard guard;
  obs::enable();
  obs::counter("test.full.counter").add(1);
  { QFC_OBS_SPAN("test.full.span"); }
  EXPECT_FALSE(obs::write_metrics("/dev/full"));
  EXPECT_FALSE(obs::write_trace("/dev/full"));
}

TEST(Obs, WorkerPoolRecordsBusyNsAndRounds) {
  ObsStateGuard guard;
  obs::enable();

  parallel::WorkerPool pool(2);
  std::atomic<std::uint64_t> sink{0};
  pool.run(8, [&](std::size_t i) {
    std::uint64_t acc = i;
    for (int k = 0; k < 200000; ++k) acc = acc * 6364136223846793005ull + 1;
    sink.fetch_add(acc, std::memory_order_relaxed);
  });

  EXPECT_EQ(obs::counter("parallel.rounds").value(), 1u);
  EXPECT_EQ(obs::counter("parallel.tasks").value(), 8u);
  // The caller always participates; worker 1 also reports when the round
  // was genuinely parallel (guaranteed claim is racy on 1 core, so only the
  // caller's counter is asserted).
  EXPECT_GT(obs::counter("parallel.worker_busy_ns.0").value(), 0u);

  const auto events = parse_events(obs::trace_json());
  bool saw_run = false;
  for (const auto& ev : events) saw_run = saw_run || name_of(ev) == "pool.run";
  EXPECT_TRUE(saw_run);
}

TEST(Obs, LinalgKernelCountersAndFlops) {
  ObsStateGuard guard;
  obs::enable_metrics(true);

  // 32x32 complex product: above matrix.hpp's tiny-product inline cutoff,
  // so one kernel runs and bills it: the planar SIMD kernel, or with SIMD
  // off the reference kernel. Nominal flops = 8 n^3.
  const std::size_t n = 32;
  linalg::CMat a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = linalg::cplx(static_cast<double>(i + 2 * j), 1.0);
      b(i, j) = linalg::cplx(static_cast<double>(i) - static_cast<double>(j), 0.5);
    }
  const linalg::CMat c = a * b;
  ASSERT_EQ(c.rows(), n);
  const char* kernel = linalg::simd_enabled() ? "blocked" : "reference";
  EXPECT_EQ(obs::counter(std::string("linalg.") + kernel + ".gemm.calls").value(), 1u);
  EXPECT_EQ(obs::counter(std::string("linalg.") + kernel + ".gemm.flops").value(),
            8ull * n * n * n);

  // A Hermitian eigensolve books calls/sweeps/rotations.
  linalg::CMat h(8, 8);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      h(i, j) = linalg::cplx(1.0 / (1.0 + static_cast<double>(i + j)),
                             i == j ? 0.0 : 0.1 * (static_cast<double>(i) - static_cast<double>(j)));
  (void)linalg::hermitian_eig(h);
  EXPECT_EQ(obs::counter("linalg.blocked.eig.calls").value(), 1u);
  EXPECT_GT(obs::counter("linalg.blocked.eig.sweeps").value(), 0u);
  EXPECT_GT(obs::counter("linalg.blocked.eig.rotations").value(), 0u);
}

TEST(Obs, EnablingObsNeverChangesEngineResults) {
  // The overhead contract's correctness half: car_matrix / correlate_all
  // outputs are bitwise identical with obs fully off and fully on.
  ObsStateGuard guard;

  std::vector<detect::ChannelPairSpec> specs(2);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    auto& s = specs[k];
    s.pair_rate_hz = 30000.0 + 5000.0 * static_cast<double>(k);
    s.linewidth_hz = 110e6;
    s.transmission_signal = 0.8;
    s.transmission_idler = 0.75;
    s.detector_signal.efficiency = 0.25;
    s.detector_signal.dark_rate_hz = 5e3;
    s.detector_signal.jitter_sigma_s = 120e-12;
    s.detector_signal.dead_time_s = 1e-6;
    s.detector_idler = s.detector_signal;
  }
  detect::EngineConfig ec;
  ec.duration_s = 0.05;
  ec.seed = 1234;
  ec.num_threads = 2;

  const auto run_all = [&] {
    const detect::EngineResult res = detect::EventEngine(ec).run(specs);
    auto cells = detect::car_matrix(res.signal, res.idler, 10e-9, 100e-9, 6, 2);
    auto hists = detect::correlate_all(res.signal, res.idler, 1e-9, 40e-9, 2);
    return std::make_tuple(res, std::move(cells), std::move(hists));
  };

  obs::disable();
  const auto [res_off, cells_off, hists_off] = run_all();
  obs::enable();
  const auto [res_on, cells_on, hists_on] = run_all();
  obs::disable();

  EXPECT_TRUE(res_off.signal == res_on.signal && res_off.idler == res_on.idler);
  ASSERT_EQ(cells_off.cells.size(), cells_on.cells.size());
  for (std::size_t i = 0; i < cells_off.cells.size(); ++i) {
    EXPECT_EQ(cells_off.cells[i].coincidences, cells_on.cells[i].coincidences);
    EXPECT_EQ(cells_off.cells[i].accidentals, cells_on.cells[i].accidentals);
  }
  ASSERT_EQ(hists_off.size(), hists_on.size());
  for (std::size_t c = 0; c < hists_off.size(); ++c)
    EXPECT_EQ(hists_off[c].counts, hists_on[c].counts);
  EXPECT_GT(res_off.signal.size() + res_off.idler.size(), 0u);
}

TEST(Obs, TomoSolveIsOneSpanWithItsHealth) {
  // One span per maximum-likelihood solve, none per step; its arguments
  // are set at the end, and the estimate is bitwise the same with obs on.
  ObsStateGuard guard;
  rng::Xoshiro256 g(5);
  const auto data = tomo::simulate_counts(quantum::werner_phi(0.9), 200.0, {}, g);

  const tomo::MleResult off = tomo::maximum_likelihood(data);
  obs::enable_tracing(true);
  const tomo::MleResult on = tomo::maximum_likelihood(data);
  obs::disable();

  EXPECT_TRUE(off.rho.matrix() == on.rho.matrix());
  EXPECT_EQ(off.iterations, on.iterations);
  EXPECT_EQ(off.likelihood_gap, on.likelihood_gap);
  ASSERT_TRUE(on.converged);
  std::vector<io::Json> solves;
  for (auto& ev : parse_events(obs::trace_json()))
    if (name_of(ev) == "tomo.solve") solves.push_back(std::move(ev));
  ASSERT_EQ(solves.size(), 1u);
  EXPECT_EQ(*solves[0].find("args"),
            io::Json::make_object({{"iterations", on.iterations},
                                   {"gap", on.likelihood_gap},
                                   {"converged", 1}}));
}

}  // namespace
