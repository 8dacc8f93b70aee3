#include "qfc/detect/streaming.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <ranges>
#include <span>
#include <string>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "qfc/detect/analysis_sweep.hpp"
#include "qfc/detect/channel_rng.hpp"
#include "qfc/detect/engine_plan.hpp"
#include "qfc/detect/detector.hpp"
#include "qfc/detect/emission_samplers.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/parallel/worker_pool.hpp"
#include "qfc/photonics/constants.hpp"

namespace qfc::detect {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoChannels = static_cast<std::size_t>(-1);

// ------------------------------------------------------------- snapshots
//
// Versioned host-endian binary blobs: "QFCS" magic, u32 version, u8 kind,
// then the kind-specific state. Every snapshotted struct declares its
// fields once, in blob order, as a field list that both ByteWriter and
// ByteReader visit, so snapshot and restore cannot disagree. Restore
// re-validates configs through the normal constructors, then overwrites
// the mutable state.

constexpr std::uint32_t kSnapshotVersion = 1;
enum SnapshotKind : std::uint8_t {
  kKindStreamer = 0,
  kKindCar = 1,
  kKindCountMatrix = 2,
  kKindCorrelator = 3,
  kKindAllan = 4,
  kKindCarPairs = 5,
};

/// `Self` is `T`, const or not: a field list serves writing and reading.
template <class Self, class T>
concept Either = std::same_as<std::remove_const_t<Self>, T>;

// Field lists of the public config types, kept here so the snapshot
// layout stays private.
template <Either<DetectorParams> Self, class Ar> void fields(Self& s, Ar& ar) {
  ar(s.efficiency, s.dark_rate_hz, s.jitter_sigma_s, s.dead_time_s);
}
template <Either<PulsedEmission> Self, class Ar> void fields(Self& s, Ar& ar) {
  ar(s.repetition_rate_hz, s.mean_pairs_per_pulse, s.pulse_sigma_s, s.bin_separation_s,
     s.late_fraction);
}
template <Either<RateSegment> Self, class Ar> void fields(Self& s, Ar& ar) {
  ar(s.duration_s, s.pair_rate_hz, s.background_rate_signal_hz, s.background_rate_idler_hz,
     s.dark_rate_signal_hz, s.dark_rate_idler_hz);
}
template <Either<ChannelPairSpec> Self, class Ar> void fields(Self& s, Ar& ar) {
  ar(s.pair_rate_hz, s.linewidth_hz, s.transmission_signal, s.transmission_idler,
     s.background_rate_signal_hz, s.background_rate_idler_hz, s.detector_signal,
     s.detector_idler, s.emission, s.pulsed, s.segments);
}
template <Either<EngineConfig> Self, class Ar> void fields(Self& s, Ar& ar) {
  ar(s.duration_s, s.seed, s.num_threads, s.analysis_threads);
}
template <Either<StreamConfig> Self, class Ar> void fields(Self& s, Ar& ar) {
  ar(s.window_s, s.slack_override_s);
}

/// Visits the field list of `s`: its static member `fields` (internal
/// state types), else the free overload above (public config types).
template <class Self, class Ar>
void visit_fields(Self& s, Ar& ar) {
  if constexpr (requires { std::remove_const_t<Self>::fields(s, ar); })
    std::remove_const_t<Self>::fields(s, ar);
  else
    fields(s, ar);
}

template <class T> constexpr bool kIsVector = false;
template <class T> constexpr bool kIsVector<std::vector<T>> = true;

/// Encodes field lists. Unsigned integers are stored as themselves, int as
/// u64, double as its bit pattern, bool and EmissionMode as u8, a generator
/// as its 4×u64 state, a vector as a u64 length and its elements, any other
/// range (a span, an array) as its elements alone, and a struct as its
/// field list.
struct ByteWriter {
  std::vector<std::uint8_t> buf;

  template <class... Ts>
  void operator()(const Ts&... values) {
    (put(values), ...);
  }

  void header(SnapshotKind kind) {
    buf.insert(buf.end(), {'Q', 'F', 'C', 'S'});
    (*this)(kSnapshotVersion, static_cast<std::uint8_t>(kind));
  }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, EmissionMode>) {
      put(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, int>) {
      put(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_unsigned_v<T>) {
      const auto old = buf.size();
      buf.resize(old + sizeof v);
      std::memcpy(buf.data() + old, &v, sizeof v);
    } else if constexpr (std::is_same_v<T, rng::Xoshiro256>) {
      put(v.state());
    } else if constexpr (std::ranges::range<T>) {
      if constexpr (kIsVector<T>) put(static_cast<std::uint64_t>(v.size()));
      for (const auto& x : v) put(x);
    } else {
      visit_fields(v, *this);
    }
  }
};

/// Fewest blob bytes one T takes: its encoding with every vector empty.
template <class T>
std::size_t min_encoded_size() {
  static const std::size_t n = [] {
    ByteWriter w;
    w(T{});
    return w.buf.size();
  }();
  return n;
}

/// Decodes what ByteWriter encodes. Every failure, including a length
/// field larger than the rest of the blob can hold, throws
/// std::invalid_argument before anything is allocated for it.
struct ByteReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  explicit ByteReader(const std::vector<std::uint8_t>& b)
      : data(b.data()), size(b.size()) {}

  template <class... Ts>
  void operator()(Ts&&... values) {
    (get(values), ...);
  }

  void header(SnapshotKind kind) {
    need(4);
    if (std::memcmp(data + pos, "QFCS", 4) != 0)
      throw std::invalid_argument("snapshot: bad magic");
    pos += 4;
    if (take<std::uint32_t>() != kSnapshotVersion)
      throw std::invalid_argument("snapshot: unsupported version");
    if (take<std::uint8_t>() != static_cast<std::uint8_t>(kind))
      throw std::invalid_argument("snapshot: wrong snapshot kind for this class");
  }
  void expect_end() const {
    if (pos != size) throw std::invalid_argument("snapshot: trailing bytes");
  }

 private:
  void need(std::size_t n) const {
    if (n > size - pos) throw std::invalid_argument("snapshot: truncated blob");
  }
  template <class U>
  U take() {
    need(sizeof(U));
    U v;
    std::memcpy(&v, data + pos, sizeof v);
    pos += sizeof v;
    return v;
  }

  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = take<std::uint8_t>() != 0;
    } else if constexpr (std::is_same_v<T, EmissionMode>) {
      v = static_cast<EmissionMode>(take<std::uint8_t>());
      if (v != EmissionMode::Cw && v != EmissionMode::Pulsed &&
          v != EmissionMode::PiecewiseRates)
        throw std::invalid_argument("snapshot: bad emission mode");
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(take<std::uint64_t>());
    } else if constexpr (std::is_same_v<T, int>) {
      v = static_cast<int>(take<std::uint64_t>());
    } else if constexpr (std::is_unsigned_v<T>) {
      v = take<T>();
    } else if constexpr (std::is_same_v<T, rng::Xoshiro256>) {
      std::array<std::uint64_t, 4> s;
      get(s);
      v.set_state(s);
    } else if constexpr (kIsVector<T>) {
      const std::uint64_t n = take<std::uint64_t>();
      if (n > (size - pos) / min_encoded_size<typename T::value_type>())
        throw std::invalid_argument("snapshot: length field exceeds the blob");
      v.resize(static_cast<std::size_t>(n));
      for (auto& x : v) get(x);
    } else if constexpr (std::ranges::range<T>) {
      for (auto& x : v) get(x);
    } else {
      visit_fields(v, *this);
    }
  }
};

/// Whether `n` is the product of `factors`, without overflowing.
bool is_product(std::size_t n, std::initializer_list<std::size_t> factors) {
  std::size_t p = 1;
  for (std::size_t f : factors) {
    if (f != 0 && p > n / f) return false;
    p *= f;
  }
  return p == n;
}

/// Blob of an accumulator's field list.
template <class Acc>
std::vector<std::uint8_t> snapshot_blob(const Acc& acc, SnapshotKind kind) {
  if (acc.finished) throw std::logic_error(std::string(acc.name) + ": snapshot after finish");
  ByteWriter w;
  w.header(kind);
  w(acc);
  return std::move(w.buf);
}

/// Replaces an accumulator's fields with a blob's, all or nothing: the
/// blob is read into a copy whose table shapes must fit the accumulator
/// (check_shape), so a rejected blob leaves `acc` untouched.
template <class Acc>
void restore_blob(Acc& acc, SnapshotKind kind, const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  r.header(kind);
  Acc next = acc;
  r(next);
  r.expect_end();
  next.check_shape();
  next.finished = false;
  acc = std::move(next);
}

// ----------------------------------------------------- per-channel state

/// Window-sized buffers of one channel task: the arm arrivals (carried,
/// then freshly emitted, then backgrounds) and the dark clicks. One set per
/// thread, reused across channels and windows, so a channel's own state
/// holds only its carry-over and its click columns. Per-channel copies
/// would keep the sum of every channel's largest window resident, which
/// grows with run length; per-thread ones stop growing once the largest
/// channel window has been seen.
struct WindowScratch {
  PairStreams arrivals;
  std::vector<double> darks, pwdarks;
};

WindowScratch& window_scratch() {
  thread_local WindowScratch scratch;
  return scratch;
}

/// One detector arm's carried state: arrivals generated but not yet pushed
/// through detection (>= last window's arrival watermark) and clicks
/// detected but not yet finalized (>= last window's click watermark).
struct ArmState {
  detail::ExpState bg;     ///< spec-level homogeneous background
  detail::PwState pwbg;    ///< piecewise background schedule
  detail::ExpState dark;   ///< detector-internal homogeneous darks
  detail::PwState pwdark;  ///< piecewise dark schedule
  std::vector<double> pending_arrivals;
  std::vector<double> pending_clicks;
  double dead_last = detail::kNoClick;  ///< dead-time filter carry
  /// This window's finalized clicks (not part of the snapshot); refilled
  /// every window, keeping its capacity.
  std::vector<double> clicks;

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.bg, s.pwbg, s.dark, s.pwdark, s.pending_arrivals, s.pending_clicks, s.dead_last);
  }
};

struct ChannelState {
  detail::ChannelRngs rng;
  detail::ExpState cw;  ///< pair emission, by the spec's mode
  detail::PulsedState pulsed;
  detail::PwState pw;
  ArmState a, b;
  double prev_theta = 0;  ///< previous window's arrival watermark
  double prev_c = 0;      ///< previous window's click watermark
  std::uint64_t violations = 0;

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    auto& g = s.rng;
    ar(g.pair, g.bg_a, g.bg_b, g.pwbg_a, g.pwbg_b, g.det_a, g.dark_a, g.pwdark_a, g.det_b,
       g.dark_b, g.pwdark_b, s.cw, s.pulsed, s.pw, s.a, s.b, s.prev_theta, s.prev_c,
       s.violations);
  }
};

/// What an EventStreamer is constructed from: the first field list of its
/// blob, read before construction so restore re-validates it through the
/// constructor.
struct StreamerSetup {
  EngineConfig cfg;
  StreamConfig stream;
  std::vector<ChannelPairSpec> specs;

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.cfg, s.stream, s.specs);
  }
};

}  // namespace

// -------------------------------------------------------- EventStreamer

struct EventStreamer::Impl : StreamerSetup {
  std::vector<detail::ChannelPlan> plans;
  std::vector<double> spill_pair;   ///< emission look-ahead past the watermark
  std::vector<double> spill_jit;    ///< arrival watermark past the click one
  std::size_t num_windows = 0;
  std::size_t k = 0;  ///< next window index
  std::vector<ChannelState> chans;
  std::unique_ptr<parallel::WorkerPool> pool;
  std::uint64_t reported_violations = 0;

  Impl(const EngineConfig& c, const StreamConfig& s,
       std::vector<ChannelPairSpec> channels)
      : StreamerSetup{c, s, std::move(channels)} {
    detail::check_engine_config(cfg);
    if (!(stream.window_s > 0))
      throw std::invalid_argument("StreamConfig: window <= 0");
    if (!(cfg.duration_s / stream.window_s < 0x1p53))
      throw std::invalid_argument("StreamConfig: window too short for the duration");

    const std::size_t n = specs.size();
    plans.reserve(n);
    spill_pair.reserve(n);
    spill_jit.reserve(n);
    for (const ChannelPairSpec& spec : specs) {
      const std::size_t c = plans.size();
      plans.push_back(detail::make_checked_plan(spec, cfg.duration_s, c));

      // P(|Laplace| / 2 > 32 scales) = e^-64 for the pair delay scale
      // 1/(2π δν); pulsed adds the deterministic late-bin shift and 16
      // sigmas of pulse-envelope jitter.
      double sp = 32.0 / (2.0 * photonics::pi * spec.linewidth_hz);
      if (spec.emission == EmissionMode::Pulsed)
        sp += spec.pulsed.bin_separation_s + 16.0 * spec.pulsed.pulse_sigma_s;
      double sj = 16.0 * std::max(spec.detector_signal.jitter_sigma_s,
                                  spec.detector_idler.jitter_sigma_s);
      if (stream.slack_override_s > 0) sp = sj = stream.slack_override_s;
      spill_pair.push_back(sp);
      spill_jit.push_back(sj);
    }

    rng::Xoshiro256 master(cfg.seed);
    chans.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
      rng::Xoshiro256 ch = master.fork(static_cast<std::uint64_t>(c + 1));
      chans.emplace_back().rng = detail::fork_channel_rngs(ch);
    }

    num_windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(cfg.duration_s / stream.window_s)));
    // Guard the float-rounding edge where ceil overshoots: never start a
    // window at or past the end of the run.
    while (num_windows > 1 &&
           static_cast<double>(num_windows - 1) * stream.window_s >= cfg.duration_s)
      --num_windows;

    unsigned num_threads = cfg.num_threads > 0
                               ? static_cast<unsigned>(cfg.num_threads)
                               : std::max(1u, std::thread::hardware_concurrency());
    num_threads = static_cast<unsigned>(
        std::min<std::size_t>(num_threads, std::max<std::size_t>(n, 1)));
    pool = std::make_unique<parallel::WorkerPool>(num_threads);
  }

  /// The mutable state, the second field list of the blob, read into a
  /// streamer constructed from the first.
  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.k, s.reported_violations, std::span(s.chans));
  }

  /// One arm of one channel for one window: `arrivals` holds the arm's
  /// carried and freshly emitted arrivals. Advance backgrounds into it up to
  /// the arrival watermark `theta`, detect its sorted prefix < theta (the
  /// rest carries over), advance dark schedules to the click watermark `C`,
  /// and finalize all clicks < C through the shared merge + dead-time pass
  /// into arm.clicks.
  void process_arm(ArmState& arm, std::vector<double>& arrivals, WindowScratch& scratch,
                   const DetectorParams& params, double bg_rate_hz,
                   double RateSegment::*pwbg_member, double RateSegment::*pwdark_member,
                   const detail::ChannelPlan& plan, double theta, double C,
                   double prev_theta, double prev_c, rng::Xoshiro256& g_bg,
                   rng::Xoshiro256& g_pwbg, rng::Xoshiro256& g_det, rng::Xoshiro256& g_dark,
                   rng::Xoshiro256& g_pwdark, std::uint64_t& violations) {
    const double T = cfg.duration_s;
    // Piecewise schedules are empty unless the spec is PiecewiseRates.
    const std::vector<RateSegment>& segments = plan.piecewise.segments;

    // Backgrounds are complete below theta by construction of their
    // advance target, so they feed straight into the arrivals.
    arm.bg.advance(bg_rate_hz, T, theta, g_bg, detail::push_into(arrivals));
    arm.pwbg.advance(segments, pwbg_member, T, theta, g_pwbg, detail::push_into(arrivals));

    // Detect the sorted arrival prefix < theta. Concatenated across
    // windows this visits every arrival in fully sorted order, so the
    // detection stream's draws do not depend on the window size.
    if (!std::is_sorted(arrivals.begin(), arrivals.end()))
      std::sort(arrivals.begin(), arrivals.end());
    const auto arr_split = std::lower_bound(arrivals.begin(), arrivals.end(), theta);
    for (auto it = arrivals.begin(); it != arr_split; ++it) {
      if (*it < prev_theta) ++violations;
      double click;
      if (detect_photon_click(*it, params, T, g_det, click))
        arm.pending_clicks.push_back(click);
    }
    arm.pending_arrivals.assign(arr_split, arrivals.end());

    // Dark clicks carry no jitter, so the click watermark C is exact for
    // them: generate straight up to C and finalize everything.
    scratch.darks.clear();
    scratch.pwdarks.clear();
    arm.dark.advance(params.dark_rate_hz, T, C, g_dark, detail::push_into(scratch.darks));
    arm.pwdark.advance(segments, pwdark_member, T, C, g_pwdark,
                       detail::push_into(scratch.pwdarks));
    detail::finalize_clicks(arm.pending_clicks, C, scratch.darks, scratch.pwdarks,
                            params.dead_time_s, arm.dead_last, arm.clicks);
    for (double t : arm.clicks)
      if (t < prev_c) ++violations;
  }

  void process_channel(std::size_t c, double C, bool last) {
    QFC_OBS_SPAN("engine.stream.channel", {{"channel", c}});
    ChannelState& st = chans[c];
    const ChannelPairSpec& spec = specs[c];
    const detail::ChannelPlan& plan = plans[c];
    // Watermark ladder for this window: clicks finalize below C, arrivals
    // are detected below theta = C + jitter slack, emission runs to
    // E = theta + pair-delay slack. The last window drains everything.
    const double theta = last ? kInf : C + spill_jit[c];
    const double E = last ? kInf : theta + spill_pair[c];

    // The carried arrivals come first; emission appends the fresh ones.
    WindowScratch& scratch = window_scratch();
    PairStreams& arrivals = scratch.arrivals;
    arrivals.a.assign(st.a.pending_arrivals.begin(), st.a.pending_arrivals.end());
    arrivals.b.assign(st.b.pending_arrivals.begin(), st.b.pending_arrivals.end());
    const std::size_t carried = arrivals.a.size() + arrivals.b.size();
    switch (plan.mode) {
      case EmissionMode::Cw:
        st.cw.advance(plan.cw.pair_rate_hz, plan.cw.duration_s, E, st.rng.pair,
                      detail::pair_emitter(plan.cw, arrivals, st.rng.pair));
        break;
      case EmissionMode::Pulsed:
        st.pulsed.advance(plan.pulsed, E, st.rng.pair,
                          detail::pair_emitter(plan.pulsed, arrivals, st.rng.pair));
        break;
      case EmissionMode::PiecewiseRates:
        st.pw.advance(plan.piecewise.segments, &RateSegment::pair_rate_hz,
                      plan.piecewise.duration_s, E, st.rng.pair,
                      detail::pair_emitter(plan.piecewise, arrivals, st.rng.pair));
        break;
    }
    if (obs::metrics_enabled())
      obs::counter("engine.events_generated")
          .add(arrivals.a.size() + arrivals.b.size() - carried);

    process_arm(st.a, arrivals.a, scratch, spec.detector_signal,
                spec.background_rate_signal_hz, &RateSegment::background_rate_signal_hz,
                &RateSegment::dark_rate_signal_hz, plan, theta, C, st.prev_theta, st.prev_c,
                st.rng.bg_a, st.rng.pwbg_a, st.rng.det_a, st.rng.dark_a, st.rng.pwdark_a,
                st.violations);
    process_arm(st.b, arrivals.b, scratch, spec.detector_idler,
                spec.background_rate_idler_hz, &RateSegment::background_rate_idler_hz,
                &RateSegment::dark_rate_idler_hz, plan, theta, C, st.prev_theta, st.prev_c,
                st.rng.bg_b, st.rng.pwbg_b, st.rng.det_b, st.rng.dark_b, st.rng.pwdark_b,
                st.violations);
    if (obs::metrics_enabled())
      obs::counter("engine.clicks_kept").add(st.a.clicks.size() + st.b.clicks.size());
    st.prev_theta = theta;
    st.prev_c = C;
  }

  bool next(StreamWindow& out) {
    if (k >= num_windows) return false;
    QFC_OBS_SPAN("engine.stream.window", {{"index", k}});
    const double W = stream.window_s;
    const bool last = (k + 1 == num_windows);
    const double t_begin = static_cast<double>(k) * W;
    const double C =
        last ? cfg.duration_s
             : std::min(static_cast<double>(k + 1) * W, cfg.duration_s);

    pool->run(chans.size(), [&](std::size_t c) { process_channel(c, C, last); });
    collect_clicks(out.events.signal, &ChannelState::a);
    collect_clicks(out.events.idler, &ChannelState::b);
    out.index = k;
    out.t_begin_s = t_begin;
    out.t_end_s = C;
    out.last = last;
    ++k;

    const std::uint64_t viol = total_violations();
    if (obs::metrics_enabled()) {
      obs::counter("engine.stream.windows").increment();
      if (viol > reported_violations)
        obs::counter("engine.stream.boundary_violations")
            .add(viol - reported_violations);
      std::size_t backlog = 0;
      for (const ChannelState& st : chans)
        backlog += st.a.pending_arrivals.size() + st.a.pending_clicks.size() +
                   st.b.pending_arrivals.size() + st.b.pending_clicks.size();
      obs::gauge("engine.stream.backlog_events")
          .set(static_cast<long long>(backlog));
      obs::gauge("engine.stream.rss_kb").set(obs::current_rss_kb());
    }
    reported_violations = viol;
    return true;
  }

  /// Refill `table` with every channel's finalized clicks of arm `arm`,
  /// keeping the table's capacity across windows. The columns are sorted by
  /// construction (finalize_clicks).
  void collect_clicks(EventTable& table, ArmState ChannelState::*arm) const {
    table.time_s.clear();
    table.channel.clear();
    table.offsets.assign(1, 0);
    for (std::size_t c = 0; c < chans.size(); ++c) {
      const std::vector<double>& col = (chans[c].*arm).clicks;
      table.time_s.insert(table.time_s.end(), col.begin(), col.end());
      table.channel.insert(table.channel.end(), col.size(), static_cast<std::uint32_t>(c));
      table.offsets.push_back(table.time_s.size());
    }
  }

  std::uint64_t total_violations() const {
    std::uint64_t v = 0;
    for (const ChannelState& st : chans) v += st.violations;
    return v;
  }
};

EventStreamer::EventStreamer(const EngineConfig& cfg, const StreamConfig& stream,
                             std::vector<ChannelPairSpec> channels)
    : impl_(std::make_unique<Impl>(cfg, stream, std::move(channels))) {}

EventStreamer::EventStreamer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
EventStreamer::~EventStreamer() = default;
EventStreamer::EventStreamer(EventStreamer&&) noexcept = default;
EventStreamer& EventStreamer::operator=(EventStreamer&&) noexcept = default;

bool EventStreamer::next(StreamWindow& out) { return impl_->next(out); }
bool EventStreamer::done() const { return impl_->k >= impl_->num_windows; }
std::size_t EventStreamer::next_window() const { return impl_->k; }
std::size_t EventStreamer::num_windows() const { return impl_->num_windows; }
std::uint64_t EventStreamer::boundary_violations() const {
  return impl_->total_violations();
}
const EngineConfig& EventStreamer::config() const { return impl_->cfg; }
const StreamConfig& EventStreamer::stream_config() const { return impl_->stream; }

std::vector<std::uint8_t> EventStreamer::snapshot() const {
  ByteWriter w;
  w.header(kKindStreamer);
  w(static_cast<const StreamerSetup&>(*impl_), *impl_);
  return std::move(w.buf);
}

EventStreamer EventStreamer::restore(const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  r.header(kKindStreamer);
  StreamerSetup setup;
  r(setup);
  EventStreamer out(setup.cfg, setup.stream, std::move(setup.specs));
  r(*out.impl_);
  r.expect_end();
  return out;
}

double bounded_window_s(const std::vector<ChannelPairSpec>& channels, double duration_s) {
  constexpr double kClicksPerWindow = 1e5;
  double rate_hz = 0;
  for (const ChannelPairSpec& s : channels) {
    const DetectorParams& ds = s.detector_signal;
    const DetectorParams& di = s.detector_idler;
    rate_hz += mean_pair_rate_hz(s) *
                   (s.transmission_signal * ds.efficiency +
                    s.transmission_idler * di.efficiency) +
               s.background_rate_signal_hz * ds.efficiency +
               s.background_rate_idler_hz * di.efficiency + ds.dark_rate_hz +
               di.dark_rate_hz;
  }
  return rate_hz > 0 ? std::min(duration_s, kClicksPerWindow / rate_hz) : duration_s;
}

void for_each_window(const EngineConfig& cfg, std::vector<ChannelPairSpec> channels,
                     const std::function<void(const StreamWindow&)>& on_window) {
  StreamConfig sc;
  sc.window_s = bounded_window_s(channels, cfg.duration_s);
  EventStreamer streamer(cfg, sc, std::move(channels));
  StreamWindow w;
  while (streamer.next(w)) on_window(w);
}

// ------------------------------------------------ streaming accumulators

namespace {

/// Repair co-sorted (time, channel) arrays after a boundary violation made
/// an append non-monotone. Rare path (never taken at default slack).
void co_sort(std::vector<double>& t, std::vector<std::uint32_t>& ch) {
  std::vector<std::size_t> idx(t.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t x, std::size_t y) { return t[x] < t[y]; });
  std::vector<double> t2(t.size());
  std::vector<std::uint32_t> c2(ch.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    t2[i] = t[idx[i]];
    c2[i] = ch[idx[i]];
  }
  t.swap(t2);
  ch.swap(c2);
}

/// Append `col` to sorted `dst`, repairing the junction if a boundary
/// violation broke monotonicity.
void append_sorted(std::vector<double>& dst, const double* begin,
                   const double* end) {
  if (begin == end) return;
  const bool clean = dst.empty() || *begin >= dst.back();
  const std::size_t old = dst.size();
  dst.insert(dst.end(), begin, end);
  if (!clean)
    std::inplace_merge(dst.begin(),
                       dst.begin() + static_cast<std::ptrdiff_t>(old), dst.end());
}

/// Signal events not yet resolved, per channel, and the one count sweep of
/// every coincidence analysis, batch or streamed.
struct SignalRoll {
  std::vector<std::vector<double>> pending;

  /// Counts, through `count(channel, first, last, row)`, every signal event
  /// — carried, or in the columns of `signal` (may be null) — whose full
  /// reach lies behind `frontier`, into row `channel` of `counts` (rows of
  /// `row_size` cells), and carries the rest. Resolved events are swept
  /// straight from the window's columns; only the unresolved tail is copied.
  /// Each channel is one serial sweep over at most two ranges (carried, then
  /// fresh) of integer counts, so the result is bitwise identical at every
  /// window size.
  template <class CountFn>
  void resolve(const EventTable* signal, double frontier, double reach,
               std::size_t row_size, std::vector<std::uint64_t>& counts,
               const CountFn& count) {
    const auto resolved_end = [&](const double* b, const double* e) {
      return std::partition_point(b, e, [&](double ta) { return ta + reach < frontier; });
    };
    for (std::size_t c = 0; c < pending.size(); ++c) {
      auto& p = pending[c];
      const double* b = signal ? signal->channel_begin(c) : nullptr;
      const double* e = signal ? signal->channel_end(c) : nullptr;
      if (!p.empty() && b != e && *b < p.back()) {  // boundary violation
        append_sorted(p, b, e);
        b = e;
      }
      std::uint64_t* row = counts.data() + c * row_size;
      const double* p_end = resolved_end(p.data(), p.data() + p.size());
      if (p_end != p.data()) count(c, p.data(), p_end, row);
      const double* tail = p_end == p.data() + p.size() ? resolved_end(b, e) : b;
      if (tail != b) count(c, b, tail, row);
      p.erase(p.begin(), p.begin() + (p_end - p.data()));
      p.insert(p.end(), tail, e);
    }
  }

  /// Earliest carried signal time of channel `c`, or `frontier` if none.
  double earliest(std::size_t c, double frontier) const {
    return pending[c].empty() ? frontier : pending[c].front();
  }
  double earliest(double frontier) const {
    for (std::size_t c = 0; c < pending.size(); ++c)
      frontier = std::min(frontier, earliest(c, frontier));
    return frontier;
  }
};

/// Drop the prefix of sorted `t` (and its co-sorted `ch`, if any) below
/// `t_min`; everything when `t_min` is not finite (nothing left to resolve).
void trim_below(std::vector<double>& t, std::vector<std::uint32_t>* ch, double t_min) {
  const auto cut = std::isfinite(t_min)
                       ? std::lower_bound(t.begin(), t.end(), t_min) - t.begin()
                       : static_cast<std::ptrdiff_t>(t.size());
  t.erase(t.begin(), t.begin() + cut);
  if (ch) ch->erase(ch->begin(), ch->begin() + cut);
}

/// Throws std::invalid_argument("<who>: non-finite <what>") unless `v` is
/// finite: NaN slips through every ordered comparison, and ±inf turns a
/// grid or a scan reach into nonsense.
void require_finite(double v, const char* who, const char* what) {
  if (!std::isfinite(v))
    throw std::invalid_argument(std::string(who) + ": non-finite " + what);
}

/// The analysis `num_threads` arguments are inert (the sweeps are serial)
/// but a negative count is still rejected.
void reject_negative_threads(int num_threads) {
  if (num_threads < 0) throw std::invalid_argument("analysis sweep: negative thread count");
}

/// CAR window grid and counts of car_matrix: one row of grid.stride cells
/// per idler channel against the merged view, or per own idler column.
struct CarKernel {
  analysis_detail::CarGrid grid;

  CarKernel(double window_s, double side_window_spacing_s, int num_side_windows) {
    require_finite(window_s, "car_matrix", "window");
    require_finite(side_window_spacing_s, "car_matrix", "side window spacing");
    if (window_s <= 0) throw std::invalid_argument("car_matrix: window <= 0");
    if (num_side_windows < 1)
      throw std::invalid_argument("car_matrix: need at least one side window");
    if (side_window_spacing_s <= window_s)
      throw std::invalid_argument("car_matrix: side windows overlap the peak");
    grid = analysis_detail::make_car_grid(window_s, side_window_spacing_s,
                                          num_side_windows);
  }
  double reach() const { return grid.reach; }
  std::size_t cells() const { return grid.stride; }
  void count(double ta, const std::vector<double>& it, const std::vector<std::uint32_t>& ich,
             std::size_t& lo, std::uint64_t* row) const {
    analysis_detail::car_count_event(ta, it, ich, lo, grid, row);
  }
  void count(double ta, const double* ie, const double*& lo, std::uint64_t* row) const {
    analysis_detail::car_pair_count_event(ta, ie, lo, grid, row);
  }
};

/// Windowed coincidence count of coincidence_count_matrix.
struct WindowKernel {
  double half = 0, offset_s = 0, reach_s = 0;

  WindowKernel(double window_s, double offset) : offset_s(offset) {
    require_finite(window_s, "coincidence_count_matrix", "window");
    require_finite(offset_s, "coincidence_count_matrix", "offset");
    if (window_s <= 0)
      throw std::invalid_argument("coincidence_count_matrix: window <= 0");
    half = window_s / 2.0;
    // Conservative scan reach (one extra window of slack): membership uses
    // the same center-bounds arithmetic as count_coincidences.
    reach_s = std::abs(offset_s) + window_s;
  }
  double reach() const { return reach_s; }
  std::size_t cells() const { return 1; }
  void count(double ta, const std::vector<double>& it, const std::vector<std::uint32_t>& ich,
             std::size_t& lo, std::uint64_t* row) const {
    analysis_detail::window_count_event(ta, it, ich, lo, half, offset_s, reach_s, row);
  }
};

/// Δt histogram bins of correlate_all, over one idler column.
struct HistogramKernel {
  double bin_width_s = 0, range_s = 0;
  std::size_t half_bins = 0, num_bins = 0;

  HistogramKernel(double bin_width, double range) : bin_width_s(bin_width), range_s(range) {
    require_finite(bin_width_s, "correlate_all", "bin width");
    require_finite(range_s, "correlate_all", "range");
    if (bin_width_s <= 0 || range_s <= 0)
      throw std::invalid_argument("correlate_all: non-positive bin width or range");
    half_bins = static_cast<std::size_t>(std::ceil(range_s / bin_width_s));
    num_bins = 2 * half_bins + 1;
  }
  double reach() const { return range_s; }
  std::size_t cells() const { return num_bins; }
  void count(double ta, const double* ie, const double*& lo, std::uint64_t* row) const {
    analysis_detail::corr_count_event(ta, ie, lo, bin_width_s, range_s, half_bins, num_bins,
                                      row);
  }
};

/// Every signal channel against every idler channel: signal events are
/// swept one contiguous channel column at a time against the merged
/// (time, channel) idler view, which is trimmed below everything a future
/// signal event can reach. `Kernel` supplies the reach, the count cells per
/// (signal, idler) pair and the per-event count; `name` prefixes misuse
/// errors.
template <class Kernel>
struct MergedSweep {
  Kernel kernel;
  const char* name;
  std::size_t ns = kNoChannels, ni = kNoChannels;
  SignalRoll signal;
  std::vector<double> it;           ///< merged idler times
  std::vector<std::uint32_t> ich;  ///< merged idler channels
  std::vector<std::uint64_t> counts;
  bool finished = false;

  MergedSweep(Kernel k, int num_threads, const char* sweep_name)
      : kernel(std::move(k)), name(sweep_name) {
    reject_negative_threads(num_threads);
  }

  void push(const EventTable& sig, const EventTable& idl, double frontier) {
    if (finished) throw std::logic_error(std::string(name) + ": push after finish");
    if (ns == kNoChannels) {
      ns = sig.num_channels();
      ni = idl.num_channels();
      signal.pending.resize(ns);
      counts.assign(ns * ni * kernel.cells(), 0);
    } else if (sig.num_channels() != ns || idl.num_channels() != ni) {
      throw std::invalid_argument(
          "streaming accumulator: window channel count changed mid-run");
    }
    analysis_detail::MergedView mv = analysis_detail::merge_channels(idl);
    if (it.empty()) {
      it.swap(mv.t);
      ich.swap(mv.ch);
    } else {
      const bool clean = mv.t.empty() || mv.t.front() >= it.back();
      it.insert(it.end(), mv.t.begin(), mv.t.end());
      ich.insert(ich.end(), mv.ch.begin(), mv.ch.end());
      if (!clean) co_sort(it, ich);
    }
    resolve(&sig, frontier);
  }

  void resolve(const EventTable* sig, double frontier) {
    const double reach = kernel.reach();
    signal.resolve(sig, frontier, reach, ni * kernel.cells(), counts,
                   [&](std::size_t, const double* a0, const double* a1, std::uint64_t* row) {
                     std::size_t lo = analysis_detail::sweep_start(it, *a0, reach);
                     for (const double* a = a0; a != a1; ++a)
                       kernel.count(*a, it, ich, lo, row);
                   });
    trim_below(it, &ich, signal.earliest(frontier) - reach);
  }

  /// Resolves everything still carried; false when nothing was pushed.
  bool finish() {
    if (finished) throw std::logic_error(std::string(name) + ": finish called twice");
    finished = true;
    if (ns == kNoChannels) return false;
    resolve(nullptr, kInf);
    return true;
  }

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.ns, s.ni, s.it, s.ich, s.signal.pending, s.counts);
  }

  /// Throws std::invalid_argument unless the tables fit the channel counts
  /// and the kernel: a restored blob is outside input.
  void check_shape() const {
    const bool fresh = ns == kNoChannels;
    const std::size_t rows = fresh ? 0 : ns;
    if ((fresh && ni != kNoChannels) || signal.pending.size() != rows ||
        !is_product(counts.size(), {rows, ni, kernel.cells()}) || ich.size() != it.size() ||
        std::any_of(ich.begin(), ich.end(), [&](std::uint32_t c) { return c >= ni; }))
      throw std::invalid_argument(std::string(name) + ": snapshot does not fit this accumulator");
  }
};

/// Signal channel k against idler channel k only: signal events are swept
/// against their own idler channel's column, which is trimmed below
/// everything a future signal event of that channel can reach. No merged
/// view is built, and each channel keeps one row of kernel.cells() counts.
/// `Kernel` supplies the reach, the cells and the per-event column count;
/// `name` prefixes misuse errors.
template <class Kernel>
struct DiagonalSweep {
  Kernel kernel;
  const char* name;
  std::size_t nch = kNoChannels;
  std::vector<std::vector<double>> idler;  ///< per-channel columns, trimmed
  SignalRoll signal;
  std::vector<std::uint64_t> counts;       ///< nch x kernel.cells()
  bool finished = false;

  DiagonalSweep(Kernel k, int num_threads, const char* sweep_name)
      : kernel(std::move(k)), name(sweep_name) {
    reject_negative_threads(num_threads);
  }

  void push(const EventTable& sig, const EventTable& idl, double frontier) {
    if (finished) throw std::logic_error(std::string(name) + ": push after finish");
    if (sig.num_channels() != idl.num_channels())
      throw std::invalid_argument(std::string(name) + ": channel count mismatch");
    if (nch == kNoChannels) {
      nch = sig.num_channels();
      idler.resize(nch);
      signal.pending.resize(nch);
      counts.assign(nch * kernel.cells(), 0);
    } else if (sig.num_channels() != nch) {
      throw std::invalid_argument(
          "streaming accumulator: window channel count changed mid-run");
    }
    for (std::size_t c = 0; c < nch; ++c)
      append_sorted(idler[c], idl.channel_begin(c), idl.channel_end(c));
    resolve(&sig, frontier);
  }

  void resolve(const EventTable* sig, double frontier) {
    const double reach = kernel.reach();
    signal.resolve(sig, frontier, reach, kernel.cells(), counts,
                   [&](std::size_t c, const double* a0, const double* a1,
                       std::uint64_t* row) {
                     const double* ib = idler[c].data();
                     const double* ie = ib + idler[c].size();
                     const double* lo = std::lower_bound(ib, ie, *a0 - reach);
                     for (const double* a = a0; a != a1; ++a) kernel.count(*a, ie, lo, row);
                   });
    for (std::size_t c = 0; c < nch; ++c)
      trim_below(idler[c], nullptr, signal.earliest(c, frontier) - reach);
  }

  /// Resolves everything still carried; false when nothing was pushed.
  bool finish() {
    if (finished) throw std::logic_error(std::string(name) + ": finish called twice");
    finished = true;
    if (nch == kNoChannels) return false;
    resolve(nullptr, kInf);
    return true;
  }

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.nch, s.idler, s.signal.pending, s.counts);
  }

  /// Throws std::invalid_argument unless the tables fit the channel count
  /// and the kernel: a restored blob is outside input.
  void check_shape() const {
    const std::size_t n = nch == kNoChannels ? 0 : nch;
    if (idler.size() != n || signal.pending.size() != n ||
        !is_product(counts.size(), {n, kernel.cells()}))
      throw std::invalid_argument(std::string(name) + ": snapshot does not fit this accumulator");
  }
};

using CarSweep = MergedSweep<CarKernel>;
using CountSweep = MergedSweep<WindowKernel>;
using CarPairsSweep = DiagonalSweep<CarKernel>;
using CorrelatorSweep = DiagonalSweep<HistogramKernel>;

CarMatrix finish_car(CarSweep& s) {
  CarMatrix result;
  if (!s.finish()) return result;
  result.num_signal = s.ns;
  result.num_idler = s.ni;
  result.cells.assign(s.ns * s.ni, CarResult{});
  analysis_detail::finalize_car_cells(result.cells, s.counts, s.kernel.grid);
  return result;
}

std::vector<CarResult> finish_car_pairs(CarPairsSweep& s) {
  if (!s.finish()) return {};
  std::vector<CarResult> cells(s.nch);
  analysis_detail::finalize_car_cells(cells, s.counts, s.kernel.grid);
  return cells;
}

std::vector<std::uint64_t> finish_counts(CountSweep& s) {
  if (!s.finish()) return {};
  return std::move(s.counts);
}

std::vector<CoincidenceHistogram> finish_histograms(CorrelatorSweep& s) {
  if (!s.finish()) return {};
  const std::size_t num_bins = s.kernel.num_bins;
  std::vector<CoincidenceHistogram> hists(s.nch);
  for (std::size_t c = 0; c < s.nch; ++c) {
    hists[c].bin_width_s = s.kernel.bin_width_s;
    hists[c].range_s = s.kernel.range_s;
    hists[c].counts.assign(s.counts.begin() + static_cast<std::ptrdiff_t>(c * num_bins),
                           s.counts.begin() + static_cast<std::ptrdiff_t>((c + 1) * num_bins));
  }
  return hists;
}

}  // namespace

// --------------------------------------------------- batch analysis entry
//
// A whole-run table pair is one window that reaches +∞: the accumulators
// resolve every event in that single push.

CarMatrix car_matrix(const EventTable& signal, const EventTable& idler, double window_s,
                     double side_window_spacing_s, int num_side_windows, int num_threads) {
  CarSweep s(CarKernel(window_s, side_window_spacing_s, num_side_windows), num_threads,
             "car_matrix");
  QFC_OBS_SPAN("engine.car_matrix", {{"events", signal.size() + idler.size()}});
  s.push(signal, idler, kInf);
  return finish_car(s);
}

std::vector<std::uint64_t> coincidence_count_matrix(const EventTable& signal,
                                                    const EventTable& idler,
                                                    double window_s, double offset_s,
                                                    int num_threads) {
  CountSweep s(WindowKernel(window_s, offset_s), num_threads, "coincidence_count_matrix");
  QFC_OBS_SPAN("engine.count_matrix", {{"events", signal.size() + idler.size()}});
  s.push(signal, idler, kInf);
  return finish_counts(s);
}

std::vector<CoincidenceHistogram> correlate_all(const EventTable& signal,
                                                const EventTable& idler,
                                                double bin_width_s, double range_s,
                                                int num_threads) {
  CorrelatorSweep s(HistogramKernel(bin_width_s, range_s), num_threads, "correlate_all");
  QFC_OBS_SPAN("engine.correlate_all", {{"events", signal.size() + idler.size()}});
  s.push(signal, idler, kInf);
  return finish_histograms(s);
}

// ------------------------------------------------ StreamingCarAccumulator

struct StreamingCarAccumulator::Impl : CarSweep {
  using CarSweep::CarSweep;
};

StreamingCarAccumulator::StreamingCarAccumulator(double window_s,
                                                 double side_window_spacing_s,
                                                 int num_side_windows,
                                                 int num_threads)
    : impl_(std::make_unique<Impl>(
          CarKernel(window_s, side_window_spacing_s, num_side_windows), num_threads,
          "StreamingCarAccumulator")) {}
StreamingCarAccumulator::~StreamingCarAccumulator() = default;
StreamingCarAccumulator::StreamingCarAccumulator(
    StreamingCarAccumulator&&) noexcept = default;
StreamingCarAccumulator& StreamingCarAccumulator::operator=(
    StreamingCarAccumulator&&) noexcept = default;

void StreamingCarAccumulator::push(const StreamWindow& w) {
  QFC_OBS_SPAN("engine.stream.car_push", {{"events", w.events.signal.size()}});
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
CarMatrix StreamingCarAccumulator::finish() { return finish_car(*impl_); }
std::vector<std::uint8_t> StreamingCarAccumulator::snapshot() const {
  return snapshot_blob(*impl_, kKindCar);
}
void StreamingCarAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  restore_blob(*impl_, kKindCar, blob);
}

// ------------------------------------------- StreamingCarPairsAccumulator

struct StreamingCarPairsAccumulator::Impl : CarPairsSweep {
  using CarPairsSweep::CarPairsSweep;
};

StreamingCarPairsAccumulator::StreamingCarPairsAccumulator(double window_s,
                                                           double side_window_spacing_s,
                                                           int num_side_windows,
                                                           int num_threads)
    : impl_(std::make_unique<Impl>(
          CarKernel(window_s, side_window_spacing_s, num_side_windows), num_threads,
          "StreamingCarPairsAccumulator")) {}
StreamingCarPairsAccumulator::~StreamingCarPairsAccumulator() = default;
StreamingCarPairsAccumulator::StreamingCarPairsAccumulator(
    StreamingCarPairsAccumulator&&) noexcept = default;
StreamingCarPairsAccumulator& StreamingCarPairsAccumulator::operator=(
    StreamingCarPairsAccumulator&&) noexcept = default;

void StreamingCarPairsAccumulator::push(const StreamWindow& w) {
  QFC_OBS_SPAN("engine.stream.car_pairs_push", {{"events", w.events.signal.size()}});
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
std::vector<CarResult> StreamingCarPairsAccumulator::finish() {
  return finish_car_pairs(*impl_);
}
std::vector<std::uint8_t> StreamingCarPairsAccumulator::snapshot() const {
  return snapshot_blob(*impl_, kKindCarPairs);
}
void StreamingCarPairsAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  restore_blob(*impl_, kKindCarPairs, blob);
}

// ---------------------------------------- StreamingCountMatrixAccumulator

struct StreamingCountMatrixAccumulator::Impl : CountSweep {
  using CountSweep::CountSweep;
};

StreamingCountMatrixAccumulator::StreamingCountMatrixAccumulator(double window_s,
                                                                 double offset_s,
                                                                 int num_threads)
    : impl_(std::make_unique<Impl>(WindowKernel(window_s, offset_s), num_threads,
                                   "StreamingCountMatrixAccumulator")) {}
StreamingCountMatrixAccumulator::~StreamingCountMatrixAccumulator() = default;
StreamingCountMatrixAccumulator::StreamingCountMatrixAccumulator(
    StreamingCountMatrixAccumulator&&) noexcept = default;
StreamingCountMatrixAccumulator& StreamingCountMatrixAccumulator::operator=(
    StreamingCountMatrixAccumulator&&) noexcept = default;

void StreamingCountMatrixAccumulator::push(const StreamWindow& w) {
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
std::vector<std::uint64_t> StreamingCountMatrixAccumulator::finish() {
  return finish_counts(*impl_);
}
std::vector<std::uint8_t> StreamingCountMatrixAccumulator::snapshot() const {
  return snapshot_blob(*impl_, kKindCountMatrix);
}
void StreamingCountMatrixAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  restore_blob(*impl_, kKindCountMatrix, blob);
}

// ---------------------------------------- StreamingCorrelatorAccumulator

struct StreamingCorrelatorAccumulator::Impl : CorrelatorSweep {
  using CorrelatorSweep::CorrelatorSweep;
};

StreamingCorrelatorAccumulator::StreamingCorrelatorAccumulator(double bin_width_s,
                                                               double range_s,
                                                               int num_threads)
    : impl_(std::make_unique<Impl>(HistogramKernel(bin_width_s, range_s), num_threads,
                                   "StreamingCorrelatorAccumulator")) {}
StreamingCorrelatorAccumulator::~StreamingCorrelatorAccumulator() = default;
StreamingCorrelatorAccumulator::StreamingCorrelatorAccumulator(
    StreamingCorrelatorAccumulator&&) noexcept = default;
StreamingCorrelatorAccumulator& StreamingCorrelatorAccumulator::operator=(
    StreamingCorrelatorAccumulator&&) noexcept = default;

void StreamingCorrelatorAccumulator::push(const StreamWindow& w) {
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
std::vector<CoincidenceHistogram> StreamingCorrelatorAccumulator::finish() {
  return finish_histograms(*impl_);
}
std::vector<std::uint8_t> StreamingCorrelatorAccumulator::snapshot() const {
  return snapshot_blob(*impl_, kKindCorrelator);
}
void StreamingCorrelatorAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  restore_blob(*impl_, kKindCorrelator, blob);
}

// -------------------------------------------- StreamingAllanAccumulator

struct StreamingAllanAccumulator::Impl {
  static constexpr const char* name = "StreamingAllanAccumulator";
  double window_s = 0, dt = 0;
  std::size_t s_ch = 0, i_ch = 0;
  std::size_t idx = 0;  ///< next interval to flush
  std::vector<double> buf_a, buf_b;
  std::vector<double> counts;
  double frontier = 0;
  bool finished = false;

  Impl(double coincidence_window_s, double sample_interval_s,
       std::size_t signal_channel, std::size_t idler_channel)
      : window_s(coincidence_window_s),
        dt(sample_interval_s),
        s_ch(signal_channel),
        i_ch(idler_channel) {
    require_finite(window_s, "StreamingAllanAccumulator", "window");
    require_finite(dt, "StreamingAllanAccumulator", "sample interval");
    if (window_s <= 0)
      throw std::invalid_argument("StreamingAllanAccumulator: window <= 0");
    if (dt <= 0)
      throw std::invalid_argument(
          "StreamingAllanAccumulator: sample interval <= 0");
  }

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.idx, s.buf_a, s.buf_b, s.counts, s.frontier);
  }

  /// Every flushed interval holds one count.
  void check_shape() const {
    if (counts.size() != idx)
      throw std::invalid_argument(std::string(name) + ": snapshot does not fit this accumulator");
  }

  void push(const StreamWindow& w) {
    if (finished)
      throw std::logic_error("StreamingAllanAccumulator: push after finish");
    if (s_ch >= w.events.signal.num_channels() ||
        i_ch >= w.events.idler.num_channels())
      throw std::invalid_argument("StreamingAllanAccumulator: bad channel index");
    append_sorted(buf_a, w.events.signal.channel_begin(s_ch),
                  w.events.signal.channel_end(s_ch));
    append_sorted(buf_b, w.events.idler.channel_begin(i_ch),
                  w.events.idler.channel_end(i_ch));
    frontier = w.t_end_s;
    flush();
  }

  void flush() {
    while (frontier >= static_cast<double>(idx + 1) * dt) {
      const double t1 = static_cast<double>(idx + 1) * dt;
      const auto ea = std::lower_bound(buf_a.begin(), buf_a.end(), t1);
      const auto eb = std::lower_bound(buf_b.begin(), buf_b.end(), t1);
      const std::vector<double> a(buf_a.begin(), ea);
      const std::vector<double> b(buf_b.begin(), eb);
      counts.push_back(static_cast<double>(count_coincidences(a, b, window_s)));
      buf_a.erase(buf_a.begin(), ea);
      buf_b.erase(buf_b.begin(), eb);
      ++idx;
    }
  }

  StreamingAllanResult finish() {
    if (finished)
      throw std::logic_error("StreamingAllanAccumulator: finish called twice");
    finished = true;
    StreamingAllanResult r;
    r.counts = counts;
    if (r.counts.empty()) return r;
    r.mean_counts =
        std::accumulate(r.counts.begin(), r.counts.end(), 0.0) /
        static_cast<double>(r.counts.size());
    std::vector<double> fractional(r.counts.size());
    for (std::size_t i = 0; i < r.counts.size(); ++i)
      fractional[i] = r.counts[i] / r.mean_counts;
    r.allan = allan_curve(fractional, dt);
    return r;
  }
};

StreamingAllanAccumulator::StreamingAllanAccumulator(double coincidence_window_s,
                                                     double sample_interval_s,
                                                     std::size_t signal_channel,
                                                     std::size_t idler_channel)
    : impl_(std::make_unique<Impl>(coincidence_window_s, sample_interval_s,
                                   signal_channel, idler_channel)) {}
StreamingAllanAccumulator::~StreamingAllanAccumulator() = default;
StreamingAllanAccumulator::StreamingAllanAccumulator(
    StreamingAllanAccumulator&&) noexcept = default;
StreamingAllanAccumulator& StreamingAllanAccumulator::operator=(
    StreamingAllanAccumulator&&) noexcept = default;

void StreamingAllanAccumulator::push(const StreamWindow& w) { impl_->push(w); }
StreamingAllanResult StreamingAllanAccumulator::finish() {
  return impl_->finish();
}

std::vector<std::uint8_t> StreamingAllanAccumulator::snapshot() const {
  return snapshot_blob(*impl_, kKindAllan);
}
void StreamingAllanAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  restore_blob(*impl_, kKindAllan, blob);
}

}  // namespace qfc::detect
