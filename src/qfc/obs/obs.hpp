#pragma once

/// \file obs.hpp
/// Lightweight, thread-safe, zero-overhead-when-disabled observability for
/// the engine/pool/linalg substrate:
///
///  - **Tracing spans** — `QFC_OBS_SPAN("engine.stream.channel", {{"channel", c}})`
///    records a scoped begin/end event into a per-thread buffer; the whole
///    trace exports as Chrome trace-event JSON (`write_trace` /
///    `trace_json`), loadable in chrome://tracing or Perfetto.
///  - **Metrics registry** — process-wide named monotonic `Counter`s and
///    last-write-wins `Gauge`s, dumped as JSON (`write_metrics` /
///    `metrics_json`).
///  - **RunReport** — snapshots the metrics registry at construction and
///    renders the *delta* as an `io::Json` object, so a bench can embed
///    exactly the counters its own run produced even when earlier phases
///    already ran.
///
/// Every export is written by `io::Json`: the trace is one compact event
/// object per line between a fixed header and footer (perfbench and the
/// tests parse it line by line), the metrics are one pretty-printed object.
///
/// Overhead contract: when disabled (the default), every span macro and
/// every metric update compiles down to a branch on ONE relaxed atomic load
/// (`detail::g_mode`) — no clock reads, no allocation, no locks — so the
/// bitwise-determinism and perf contracts of `parallel`/`linalg`/`detect`
/// are untouched. Instrumentation must never alter computed values in
/// either mode (pinned by tests/test_obs.cpp's bitwise-invariance test).
///
/// Enabling: programmatically via `enable()` / `enable_tracing()` /
/// `enable_metrics()`, or from the environment — `QFC_OBS_TRACE=<path>`
/// turns tracing on and writes the Chrome trace JSON to <path> at process
/// exit; `QFC_OBS_METRICS=<path>` does the same for the metrics registry.
///
/// Naming conventions and how to open a trace: src/qfc/obs/README.md.
///
/// Lifetime notes: span names and argument keys/string values must be
/// string literals (or otherwise outlive the trace export) — they are
/// stored as pointers, not copied. References returned by `counter`/`gauge`
/// stay valid for the process lifetime.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "qfc/io/json.hpp"

namespace qfc::obs {

namespace detail {

inline constexpr std::uint32_t kTraceBit = 1u;
inline constexpr std::uint32_t kMetricsBit = 2u;

/// The one relaxed atomic every disabled-mode branch reads.
extern std::atomic<std::uint32_t> g_mode;

/// Monotonic nanoseconds since the process's first obs timestamp.
std::uint64_t now_ns();

}  // namespace detail

inline bool tracing_enabled() noexcept {
  return (detail::g_mode.load(std::memory_order_relaxed) & detail::kTraceBit) != 0;
}
inline bool metrics_enabled() noexcept {
  return (detail::g_mode.load(std::memory_order_relaxed) & detail::kMetricsBit) != 0;
}
inline bool enabled() noexcept {
  return detail::g_mode.load(std::memory_order_relaxed) != 0;
}

/// Enable both tracing and metrics / flip one facility / disable both.
void enable();
void enable_tracing(bool on = true);
void enable_metrics(bool on = true);
void disable();

/// Clear every recorded span and zero every registered metric (names and
/// references stay valid). For tests and between bench phases.
void reset();

// ------------------------------------------------------------------ tracing

/// One key/value argument attached to a span. Values are 64-bit integers,
/// doubles or static strings; keys must be string literals.
struct SpanArg {
  enum class Kind : std::uint8_t { Int, Double, Str };
  const char* key = nullptr;
  Kind kind = Kind::Int;
  union {  // the member `kind` names
    long long i = 0;
    double d;
    const char* s;
  };

  constexpr SpanArg() = default;
  template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  constexpr SpanArg(const char* k, T v)
      : key(k), kind(Kind::Int), i(static_cast<long long>(v)) {}
  constexpr SpanArg(const char* k, double v) : key(k), kind(Kind::Double), d(v) {}
  constexpr SpanArg(const char* k, const char* v) : key(k), kind(Kind::Str), s(v) {}
};

/// RAII scope recording one Chrome "complete" event (begin time + duration
/// on the recording thread). Construct through QFC_OBS_SPAN, which skips
/// argument evaluation entirely when tracing is disabled. At most
/// kMaxSpanArgs arguments are kept (extras are dropped silently).
class SpanGuard {
 public:
  static constexpr std::size_t kMaxSpanArgs = 3;

  SpanGuard() = default;
  explicit SpanGuard(const char* name) { open(name, nullptr, 0); }
  SpanGuard(const char* name, std::initializer_list<SpanArg> args) {
    open(name, args.begin(), args.size());
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() {
    if (name_ != nullptr) close();
  }

  /// Replace the arguments of an open span, for results known only at its
  /// end; an inert guard ignores them.
  void set_args(std::initializer_list<SpanArg> args) {
    if (name_ != nullptr) set(args.begin(), args.size());
  }

 private:
  void open(const char* name, const SpanArg* args, std::size_t n);
  void set(const SpanArg* args, std::size_t n);
  void close();

  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::array<SpanArg, kMaxSpanArgs> args_{};
  std::uint8_t num_args_ = 0;
};

#define QFC_OBS_CONCAT_INNER(a, b) a##b
#define QFC_OBS_CONCAT(a, b) QFC_OBS_CONCAT_INNER(a, b)

/// QFC_OBS_SPAN("name") or QFC_OBS_SPAN("name", {{"key", value}, ...}).
/// Both arms of the conditional are prvalues, so the guard is constructed
/// in place (no move); when tracing is off the arguments are never
/// evaluated — the whole statement is one relaxed load + branch.
#define QFC_OBS_SPAN(...)                                                \
  ::qfc::obs::SpanGuard QFC_OBS_CONCAT(qfc_obs_span_, __LINE__) =        \
      ::qfc::obs::tracing_enabled() ? ::qfc::obs::SpanGuard(__VA_ARGS__) \
                                    : ::qfc::obs::SpanGuard()

/// The full trace as Chrome trace-event JSON: the header `{"traceEvents":[`,
/// then one compact event object per line in start-time order (keys name,
/// cat, ph, pid, tid, ts, dur and, when the span has any, args), then a
/// footer with displayTimeUnit and otherData.dropped_events. Each event line
/// starts with `{"name"` and parses alone once its trailing comma is cut.
std::string trace_json();
/// Write trace_json() to `path`; false (with a stderr note) on I/O failure.
bool write_trace(const std::string& path);

// ------------------------------------------------------------------ metrics

/// Monotonic counter. add() is a relaxed fetch_add when metrics are
/// enabled, a branch otherwise.
class Counter {
 public:
  void add(std::uint64_t v) noexcept {
    if (metrics_enabled()) v_.fetch_add(v, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset_value() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (e.g. queue depth).
class Gauge {
 public:
  void set(long long v) noexcept {
    if (metrics_enabled()) v_.store(v, std::memory_order_relaxed);
  }
  long long value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset_value() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Get-or-create a metric by name. The returned reference is stable for the
/// process lifetime; hot paths should cache it (e.g. in a function-local
/// static) instead of looking the name up per update.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);

/// The whole registry as one JSON object, {"counters": {...}, "gauges":
/// {...}}, in `io::Json::dump(2)` form.
std::string metrics_json();
/// Write metrics_json() to `path`; false (with a stderr note) on failure.
bool write_metrics(const std::string& path);

/// Current resident set size of the process in kB (VmRSS from
/// /proc/self/status), or 0 where that is unavailable. Unlike getrusage's
/// ru_maxrss this is the *instantaneous* RSS, so the streaming engine can
/// report a bounded-memory gauge that actually goes down when buffers are
/// released.
long long current_rss_kb();

/// Snapshots the metrics registry at construction; json() renders the delta
/// since then as {"enabled", "wall_ms", "counters", "gauges"} — the
/// run-scoped aggregate benches embed in their own reports. Counters are
/// differences (a counter below its baseline, because `reset()` ran in
/// between, reports its current value); gauges are current values.
class RunReport {
 public:
  RunReport();
  ~RunReport();
  RunReport(const RunReport&) = delete;
  RunReport& operator=(const RunReport&) = delete;

  io::Json json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qfc::obs
