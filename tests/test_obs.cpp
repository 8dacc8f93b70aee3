// Tests for qfc::obs — the zero-overhead-when-disabled observability layer:
// span recording/nesting/thread attribution in the Chrome trace export,
// counter/gauge/histogram correctness (including under 4-thread contention),
// valid-JSON round-trips of both exports, RunReport deltas, the worker-pool
// and linalg instrumentation hooks, and the contract that matters most:
// enabling or disabling obs never changes a single computed bit.

#include <atomic>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/detect/event_engine.hpp"
#include "qfc/linalg/backend.hpp"
#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/parallel/worker_pool.hpp"

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

// ------------------------------------------------- minimal JSON validation

/// Tiny recursive-descent JSON syntax checker (no values materialized), so
/// the round-trip tests do not depend on any external parser.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        pos_ += 2;
      } else {
        ++pos_;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::string_view(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------ trace-line parsing

/// One parsed trace event. trace_json() emits one event object per line, so
/// the tests can scan lines instead of building a full JSON reader.
struct ParsedEvent {
  std::string name;
  unsigned tid = 0;
  double ts = 0;   // µs
  double dur = 0;  // µs
  std::string raw;
};

std::vector<ParsedEvent> parse_events(const std::string& trace) {
  std::vector<ParsedEvent> events;
  std::size_t line_start = 0;
  while (line_start < trace.size()) {
    std::size_t line_end = trace.find('\n', line_start);
    if (line_end == std::string::npos) line_end = trace.size();
    const std::string line = trace.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.rfind("{\"name\": \"", 0) != 0) continue;
    ParsedEvent ev;
    ev.raw = line;
    const std::size_t name_end = line.find('"', 10);
    ev.name = line.substr(10, name_end - 10);
    const auto field = [&](const char* key) {
      const std::size_t at = line.find(key);
      EXPECT_NE(at, std::string::npos) << key << " missing in: " << line;
      return at == std::string::npos ? 0.0 : std::stod(line.substr(at + std::string_view(key).size()));
    };
    ev.tid = static_cast<unsigned>(field("\"tid\": "));
    ev.ts = field("\"ts\": ");
    ev.dur = field("\"dur\": ");
    events.push_back(ev);
  }
  return events;
}

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
  obs::histogram("test.disabled.hist").observe(3);
  EXPECT_EQ(obs::histogram("test.disabled.hist").count(), 0u);

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

TEST(Obs, HistogramBucketBoundariesAreFixed) {
  // bucket 0 = {0}; bucket b = [2^(b-1), 2^b) for 1 <= b < 63; bucket 63
  // holds everything >= 2^62 — pure functions of the value, so exported
  // histograms are deterministic across runs and machines.
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(obs::Histogram::bucket_of(std::uint64_t{1} << 62), 63u);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 63u);
}

TEST(Obs, CountersAndHistogramsExactUnderContention) {
  ObsStateGuard guard;
  obs::enable_metrics(true);
  obs::Counter& c = obs::counter("test.contention.counter");
  obs::Histogram& h = obs::histogram("test.contention.hist");

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.increment();
        h.observe(static_cast<std::uint64_t>(t));  // thread t -> one bucket
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.sum(), kPerThread * (0 + 1 + 2 + 3));
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(0)), kPerThread);  // t=0
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(1)), kPerThread);  // t=1
  // t=2 and t=3 share bucket 2 = [2, 4).
  EXPECT_EQ(h.bucket_count(2), 2 * kPerThread);
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

  const auto find = [&](const char* name) -> const ParsedEvent& {
    for (const auto& ev : events)
      if (ev.name == name) return ev;
    ADD_FAILURE() << name << " span missing";
    return events.front();
  };
  const ParsedEvent& outer = find("test.outer");
  const ParsedEvent& inner = find("test.inner");
  const ParsedEvent& remote = find("test.worker");

  // Nesting: the inner complete-event interval sits inside the outer one,
  // on the same thread.
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts, outer.ts);
  EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur);

  // Thread attribution: the worker's span carries a different tid.
  EXPECT_NE(remote.tid, outer.tid);

  // Arguments round-trip.
  EXPECT_NE(outer.raw.find("\"answer\": 42"), std::string::npos);
  EXPECT_NE(remote.raw.find("\"who\": \"worker\""), std::string::npos);
}

TEST(Obs, ExportsAreValidJson) {
  ObsStateGuard guard;
  obs::enable();
  {
    QFC_OBS_SPAN("test.json \"quoted\\name\"", {{"mode", "a\"b"}, {"n", -3}});
  }
  obs::counter("test.json.counter \"escaped\"").add(5);
  obs::gauge("test.json.gauge").set(-12);
  obs::histogram("test.json.hist").observe(1000);

  const std::string trace = obs::trace_json();
  EXPECT_TRUE(JsonChecker(trace).valid()) << trace;
  const std::string metrics = obs::metrics_json();
  EXPECT_TRUE(JsonChecker(metrics).valid()) << metrics;
  EXPECT_NE(metrics.find("\"test.json.counter \\\"escaped\\\"\": 5"), std::string::npos);

  // Empty registry/trace exports are valid JSON too.
  obs::reset();
  EXPECT_TRUE(JsonChecker(obs::trace_json()).valid());
  EXPECT_TRUE(JsonChecker(obs::metrics_json()).valid());
}

TEST(Obs, RunReportRendersDeltas) {
  ObsStateGuard guard;
  obs::enable_metrics(true);
  obs::counter("test.report.counter").add(100);

  const obs::RunReport report;
  obs::counter("test.report.counter").add(7);

  const std::string json = report.json_object();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"test.report.counter\": 7"), std::string::npos)
      << "RunReport must render the delta since construction, got: " << json;
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
  for (const auto& ev : events) saw_run = saw_run || ev.name == "pool.run";
  EXPECT_TRUE(saw_run);
}

TEST(Obs, LinalgKernelCountersAndFlops) {
  ObsStateGuard guard;
  obs::enable_metrics(true);

  // 32x32 real product: above matrix.hpp's tiny-product inline cutoff but
  // below blocked_gemm's flop cutoff, so it runs (and bills as) the
  // reference kernel. Nominal flops = 2 n^3.
  const std::size_t n = 32;
  linalg::RMat a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = static_cast<double>(i + 2 * j);
      b(i, j) = static_cast<double>(i) - static_cast<double>(j);
    }
  const linalg::RMat c = a * b;
  ASSERT_EQ(c.rows(), n);
  EXPECT_EQ(obs::counter("linalg.reference.gemm.calls").value(), 1u);
  EXPECT_EQ(obs::counter("linalg.reference.gemm.flops").value(), 2ull * n * n * n);

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

}  // namespace
