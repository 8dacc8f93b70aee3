#include "qfc/obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

namespace qfc::obs {

namespace detail {

std::atomic<std::uint32_t> g_mode{0};

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  // Epoch = first obs timestamp of the process (thread-safe magic static);
  // all trace timestamps are relative to it.
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch)
          .count());
}

}  // namespace detail

namespace {

// Per-thread buffers above this many events drop further spans (counted in
// the export's otherData.dropped_events) instead of growing without bound.
constexpr std::size_t kMaxEventsPerThread = 1u << 18;

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t t0 = 0;
  std::uint64_t dur = 0;
  std::array<SpanArg, SpanGuard::kMaxSpanArgs> args{};
  std::uint8_t num_args = 0;
};

struct ThreadBuffer {
  std::mutex mu;  // taken by the owning thread on push and by exporters
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

// Trace state is intentionally immortal (heap-allocated, never freed): the
// atexit flush registered by the env-var initializer below must be able to
// export after every other static has been destroyed.
struct TraceState {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;
  std::uint32_t next_tid = 1;
};

TraceState& trace_state() {
  static TraceState* s = new TraceState();
  return *s;
}

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto* fresh = new ThreadBuffer();
    TraceState& s = trace_state();
    std::lock_guard<std::mutex> lock(s.mu);
    fresh->tid = s.next_tid++;
    s.buffers.push_back(fresh);
    buf = fresh;
  }
  return *buf;
}

// ------------------------------------------------------------ registry

struct Registry {
  std::mutex mu;
  // node-based maps: element addresses are stable, so the references handed
  // out by counter()/gauge() survive any later registration.
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
};

Registry& registry() {
  static Registry* r = new Registry();  // immortal, see TraceState
  return *r;
}

template <class Map>
auto& get_or_create(Map& m, std::string_view name) {
  auto it = m.find(name);
  if (it == m.end()) it = m.try_emplace(std::string(name)).first;
  return it->second;
}

// ------------------------------------------------------ metrics snapshot

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, long long> gauges;
};

MetricsSnapshot snapshot_metrics() {
  MetricsSnapshot snap;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& [name, c] : reg.counters) snap.counters[name] = c.value();
  for (const auto& [name, g] : reg.gauges) snap.gauges[name] = g.value();
  return snap;
}

/// Set the "counters" and "gauges" members of `out`. Counters are deltas
/// against `base` when given; one below its baseline (obs::reset() ran in
/// between) reports its current value. Gauges are always instantaneous.
void set_metrics(io::Json& out, const MetricsSnapshot& cur, const MetricsSnapshot* base) {
  io::Json::Object counters;
  for (const auto& [name, v] : cur.counters) {
    std::uint64_t value = v;
    if (base != nullptr) {
      const auto it = base->counters.find(name);
      if (it != base->counters.end() && it->second <= v) value -= it->second;
    }
    counters.emplace_back(name, value);
  }
  io::Json::Object gauges;
  for (const auto& [name, v] : cur.gauges) gauges.emplace_back(name, v);
  out.set("counters", io::Json::make_object(std::move(counters)));
  out.set("gauges", io::Json::make_object(std::move(gauges)));
}

/// One Chrome "complete" event. ts/dur are microseconds; the ns resolution
/// survives as decimals.
io::Json event_json(const TraceEvent& ev, std::uint32_t tid) {
  io::Json j = io::Json::make_object({{"name", ev.name},
                                      {"cat", "qfc"},
                                      {"ph", "X"},
                                      {"pid", 1},
                                      {"tid", tid},
                                      {"ts", static_cast<double>(ev.t0) / 1000.0},
                                      {"dur", static_cast<double>(ev.dur) / 1000.0}});
  if (ev.num_args > 0) {
    io::Json args = io::Json::make_object();
    for (std::uint8_t a = 0; a < ev.num_args; ++a) {
      const SpanArg& arg = ev.args[a];
      args.set(arg.key != nullptr ? arg.key : "",
               arg.kind == SpanArg::Kind::Str ? io::Json(arg.s != nullptr ? arg.s : "")
                                              : io::Json(arg.i));
    }
    j.set("args", std::move(args));
  }
  return j;
}

bool write_string(const std::string& path, const std::string& body,
                  const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
         std::fputc('\n', f) != EOF;
    ok = std::fclose(f) == 0 && ok;  // a full disk shows up at the flush
  }
  if (!ok) std::fprintf(stderr, "qfc-obs: cannot write %s to %s\n", what, path.c_str());
  return ok;
}

// ----------------------------------------------------------- env control

std::string& env_trace_path() {
  static std::string* p = new std::string();
  return *p;
}
std::string& env_metrics_path() {
  static std::string* p = new std::string();
  return *p;
}

void flush_at_exit() {
  if (!env_trace_path().empty() && write_trace(env_trace_path()))
    std::fprintf(stderr, "qfc-obs: wrote trace to %s\n", env_trace_path().c_str());
  if (!env_metrics_path().empty() && write_metrics(env_metrics_path()))
    std::fprintf(stderr, "qfc-obs: wrote metrics to %s\n",
                 env_metrics_path().c_str());
}

/// Runs during static initialization of any binary that links the qfc
/// library (every instrumented module references obs symbols, so this TU is
/// always pulled in): QFC_OBS_TRACE=<path> / QFC_OBS_METRICS=<path> enable
/// the corresponding facility and register an exit-time export.
struct EnvInit {
  EnvInit() {
    if (const char* p = std::getenv("QFC_OBS_TRACE"); p != nullptr && *p != '\0') {
      env_trace_path() = p;
      enable_tracing(true);
    }
    if (const char* p = std::getenv("QFC_OBS_METRICS"); p != nullptr && *p != '\0') {
      env_metrics_path() = p;
      enable_metrics(true);
    }
    if (!env_trace_path().empty() || !env_metrics_path().empty())
      std::atexit(&flush_at_exit);
  }
};
const EnvInit g_env_init{};

}  // namespace

// ------------------------------------------------------------- public API

void enable() {
  detail::g_mode.fetch_or(detail::kTraceBit | detail::kMetricsBit,
                          std::memory_order_relaxed);
}

void enable_tracing(bool on) {
  if (on)
    detail::g_mode.fetch_or(detail::kTraceBit, std::memory_order_relaxed);
  else
    detail::g_mode.fetch_and(~detail::kTraceBit, std::memory_order_relaxed);
}

void enable_metrics(bool on) {
  if (on)
    detail::g_mode.fetch_or(detail::kMetricsBit, std::memory_order_relaxed);
  else
    detail::g_mode.fetch_and(~detail::kMetricsBit, std::memory_order_relaxed);
}

void disable() { detail::g_mode.store(0, std::memory_order_relaxed); }

void reset() {
  {
    TraceState& s = trace_state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (ThreadBuffer* buf : s.buffers) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      buf->events.clear();
      buf->dropped = 0;
    }
  }
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [name, c] : reg.counters) c.reset_value();
  for (auto& [name, g] : reg.gauges) g.reset_value();
}

// ---------------------------------------------------------------- tracing

void SpanGuard::open(const char* name, const SpanArg* args, std::size_t n) {
  name_ = name;
  num_args_ = static_cast<std::uint8_t>(std::min(n, kMaxSpanArgs));
  for (std::uint8_t a = 0; a < num_args_; ++a) args_[a] = args[a];
  t0_ = detail::now_ns();
}

void SpanGuard::close() {
  if (!tracing_enabled()) return;  // disabled between open and close: drop
  const std::uint64_t t1 = detail::now_ns();
  ThreadBuffer& buf = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.events.size() >= kMaxEventsPerThread) {
    ++buf.dropped;
    return;
  }
  TraceEvent& ev = buf.events.emplace_back();
  ev.name = name_;
  ev.t0 = t0_;
  ev.dur = t1 - t0_;
  ev.args = args_;
  ev.num_args = num_args_;
}

std::string trace_json() {
  struct Flat {
    TraceEvent ev;
    std::uint32_t tid;
  };
  std::vector<Flat> flat;
  std::uint64_t dropped = 0;
  {
    TraceState& s = trace_state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (ThreadBuffer* buf : s.buffers) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      dropped += buf->dropped;
      for (const TraceEvent& ev : buf->events) flat.push_back({ev, buf->tid});
    }
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const Flat& a, const Flat& b) { return a.ev.t0 < b.ev.t0; });

  // Rendered one event at a time, after the buffer locks are released:
  // beyond the flat copy and the output, the export holds one event.
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < flat.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += event_json(flat[i].ev, flat[i].tid).dump();
  }
  out += flat.empty() ? "]" : "\n]";
  out += ",\"displayTimeUnit\":\"ns\",\"otherData\":";
  out += io::Json::make_object({{"dropped_events", dropped}}).dump();
  out += "}";
  return out;
}

bool write_trace(const std::string& path) {
  return write_string(path, trace_json(), "trace");
}

// ---------------------------------------------------------------- metrics

Counter& counter(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return get_or_create(reg.counters, name);
}

Gauge& gauge(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return get_or_create(reg.gauges, name);
}

std::string metrics_json() {
  io::Json out = io::Json::make_object();
  set_metrics(out, snapshot_metrics(), nullptr);
  return out.dump(2);
}

bool write_metrics(const std::string& path) {
  return write_string(path, metrics_json(), "metrics");
}

long long current_rss_kb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "VmRSS: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

// -------------------------------------------------------------- RunReport

struct RunReport::Impl {
  MetricsSnapshot baseline;
  std::uint64_t t0_ns = 0;
};

RunReport::RunReport() : impl_(std::make_unique<Impl>()) {
  impl_->baseline = snapshot_metrics();
  impl_->t0_ns = detail::now_ns();
}

RunReport::~RunReport() = default;

io::Json RunReport::json() const {
  io::Json out = io::Json::make_object(
      {{"enabled", metrics_enabled()},
       {"wall_ms", static_cast<double>(detail::now_ns() - impl_->t0_ns) / 1e6}});
  set_metrics(out, snapshot_metrics(), &impl_->baseline);
  return out;
}

}  // namespace qfc::obs
