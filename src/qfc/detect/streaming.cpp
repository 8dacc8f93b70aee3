#include "qfc/detect/streaming.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <stdexcept>
#include <thread>
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
// then the kind-specific state. Restore re-validates configs through the
// normal constructors, then overwrites the mutable state.

constexpr std::uint32_t kSnapshotVersion = 1;
enum SnapshotKind : std::uint8_t {
  kKindStreamer = 0,
  kKindCar = 1,
  kKindCountMatrix = 2,
  kKindCorrelator = 3,
  kKindAllan = 4,
  kKindCarPairs = 5,
};

struct ByteWriter {
  std::vector<std::uint8_t> buf;

  void u8(std::uint8_t v) { buf.push_back(v); }
  void u32(std::uint32_t v) {
    const auto old = buf.size();
    buf.resize(old + sizeof v);
    std::memcpy(buf.data() + old, &v, sizeof v);
  }
  void u64(std::uint64_t v) {
    const auto old = buf.size();
    buf.resize(old + sizeof v);
    std::memcpy(buf.data() + old, &v, sizeof v);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (std::uint32_t x : v) u32(x);
  }
  void rng(const rng::Xoshiro256& g) {
    for (std::uint64_t s : g.state()) u64(s);
  }
  void header(SnapshotKind kind) {
    buf.push_back('Q');
    buf.push_back('F');
    buf.push_back('C');
    buf.push_back('S');
    u32(kSnapshotVersion);
    u8(static_cast<std::uint8_t>(kind));
  }
};

struct ByteReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  explicit ByteReader(const std::vector<std::uint8_t>& b)
      : data(b.data()), size(b.size()) {}

  void need(std::size_t n) const {
    if (pos + n > size) throw std::invalid_argument("snapshot: truncated blob");
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint32_t u32() {
    need(sizeof(std::uint32_t));
    std::uint32_t v;
    std::memcpy(&v, data + pos, sizeof v);
    pos += sizeof v;
    return v;
  }
  std::uint64_t u64() {
    need(sizeof(std::uint64_t));
    std::uint64_t v;
    std::memcpy(&v, data + pos, sizeof v);
    pos += sizeof v;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::vector<double> vec_f64() {
    const std::uint64_t n = u64();
    need(n * sizeof(std::uint64_t));
    std::vector<double> v(n);
    for (auto& x : v) x = f64();
    return v;
  }
  std::vector<std::uint64_t> vec_u64() {
    const std::uint64_t n = u64();
    need(n * sizeof(std::uint64_t));
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = u64();
    return v;
  }
  std::vector<std::uint32_t> vec_u32() {
    const std::uint64_t n = u64();
    need(n * sizeof(std::uint32_t));
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = u32();
    return v;
  }
  void rng(rng::Xoshiro256& g) {
    std::array<std::uint64_t, 4> s;
    for (auto& x : s) x = u64();
    g.set_state(s);
  }
  void header(SnapshotKind kind) {
    need(4);
    if (data[pos] != 'Q' || data[pos + 1] != 'F' || data[pos + 2] != 'C' ||
        data[pos + 3] != 'S')
      throw std::invalid_argument("snapshot: bad magic");
    pos += 4;
    if (u32() != kSnapshotVersion)
      throw std::invalid_argument("snapshot: unsupported version");
    if (u8() != static_cast<std::uint8_t>(kind))
      throw std::invalid_argument("snapshot: wrong snapshot kind for this class");
  }
  void expect_end() const {
    if (pos != size) throw std::invalid_argument("snapshot: trailing bytes");
  }
};

// ----------------------------------------------------- per-channel state

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

  void save(ByteWriter& w) const {
    bg.save(w);
    pwbg.save(w);
    dark.save(w);
    pwdark.save(w);
    w.vec_f64(pending_arrivals);
    w.vec_f64(pending_clicks);
    w.f64(dead_last);
  }
  void load(ByteReader& r) {
    bg.load(r);
    pwbg.load(r);
    dark.load(r);
    pwdark.load(r);
    pending_arrivals = r.vec_f64();
    pending_clicks = r.vec_f64();
    dead_last = r.f64();
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

  void save(ByteWriter& w) const {
    w.rng(rng.pair);
    w.rng(rng.bg_a);
    w.rng(rng.bg_b);
    w.rng(rng.pwbg_a);
    w.rng(rng.pwbg_b);
    w.rng(rng.det_a);
    w.rng(rng.dark_a);
    w.rng(rng.pwdark_a);
    w.rng(rng.det_b);
    w.rng(rng.dark_b);
    w.rng(rng.pwdark_b);
    cw.save(w);
    pulsed.save(w);
    pw.save(w);
    a.save(w);
    b.save(w);
    w.f64(prev_theta);
    w.f64(prev_c);
    w.u64(violations);
  }
  void load(ByteReader& r) {
    r.rng(rng.pair);
    r.rng(rng.bg_a);
    r.rng(rng.bg_b);
    r.rng(rng.pwbg_a);
    r.rng(rng.pwbg_b);
    r.rng(rng.det_a);
    r.rng(rng.dark_a);
    r.rng(rng.pwdark_a);
    r.rng(rng.det_b);
    r.rng(rng.dark_b);
    r.rng(rng.pwdark_b);
    cw.load(r);
    pulsed.load(r);
    pw.load(r);
    a.load(r);
    b.load(r);
    prev_theta = r.f64();
    prev_c = r.f64();
    violations = r.u64();
  }
};

void save_spec(ByteWriter& w, const ChannelPairSpec& s) {
  w.f64(s.pair_rate_hz);
  w.f64(s.linewidth_hz);
  w.f64(s.transmission_signal);
  w.f64(s.transmission_idler);
  w.f64(s.background_rate_signal_hz);
  w.f64(s.background_rate_idler_hz);
  for (const DetectorParams* d : {&s.detector_signal, &s.detector_idler}) {
    w.f64(d->efficiency);
    w.f64(d->dark_rate_hz);
    w.f64(d->jitter_sigma_s);
    w.f64(d->dead_time_s);
  }
  w.u8(static_cast<std::uint8_t>(s.emission));
  w.f64(s.pulsed.repetition_rate_hz);
  w.f64(s.pulsed.mean_pairs_per_pulse);
  w.f64(s.pulsed.pulse_sigma_s);
  w.f64(s.pulsed.bin_separation_s);
  w.f64(s.pulsed.late_fraction);
  w.u64(s.segments.size());
  for (const RateSegment& seg : s.segments) {
    w.f64(seg.duration_s);
    w.f64(seg.pair_rate_hz);
    w.f64(seg.background_rate_signal_hz);
    w.f64(seg.background_rate_idler_hz);
    w.f64(seg.dark_rate_signal_hz);
    w.f64(seg.dark_rate_idler_hz);
  }
}

ChannelPairSpec load_spec(ByteReader& r) {
  ChannelPairSpec s;
  s.pair_rate_hz = r.f64();
  s.linewidth_hz = r.f64();
  s.transmission_signal = r.f64();
  s.transmission_idler = r.f64();
  s.background_rate_signal_hz = r.f64();
  s.background_rate_idler_hz = r.f64();
  for (DetectorParams* d : {&s.detector_signal, &s.detector_idler}) {
    d->efficiency = r.f64();
    d->dark_rate_hz = r.f64();
    d->jitter_sigma_s = r.f64();
    d->dead_time_s = r.f64();
  }
  s.emission = static_cast<EmissionMode>(r.u8());
  if (s.emission != EmissionMode::Cw && s.emission != EmissionMode::Pulsed &&
      s.emission != EmissionMode::PiecewiseRates)
    throw std::invalid_argument("snapshot: bad emission mode");
  s.pulsed.repetition_rate_hz = r.f64();
  s.pulsed.mean_pairs_per_pulse = r.f64();
  s.pulsed.pulse_sigma_s = r.f64();
  s.pulsed.bin_separation_s = r.f64();
  s.pulsed.late_fraction = r.f64();
  const std::uint64_t nseg = r.u64();
  s.segments.resize(nseg);
  for (RateSegment& seg : s.segments) {
    seg.duration_s = r.f64();
    seg.pair_rate_hz = r.f64();
    seg.background_rate_signal_hz = r.f64();
    seg.background_rate_idler_hz = r.f64();
    seg.dark_rate_signal_hz = r.f64();
    seg.dark_rate_idler_hz = r.f64();
  }
  return s;
}

}  // namespace

// -------------------------------------------------------- EventStreamer

struct EventStreamer::Impl {
  EngineConfig cfg;
  StreamConfig stream;
  std::vector<ChannelPairSpec> specs;
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
      : cfg(c), stream(s), specs(std::move(channels)) {
    if (cfg.duration_s <= 0)
      throw std::invalid_argument("EngineConfig: duration <= 0");
    if (cfg.num_threads < 0)
      throw std::invalid_argument("EngineConfig: negative thread count");
    if (cfg.analysis_threads < 0)
      throw std::invalid_argument("EngineConfig: negative analysis thread count");
    if (!(stream.window_s > 0))
      throw std::invalid_argument("StreamConfig: window <= 0");

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
      chans.push_back(ChannelState{detail::fork_channel_rngs(ch), {}, {}, {}, {}, {}});
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

  /// One arm of one channel for one window: advance backgrounds to the
  /// arrival watermark `theta`, detect the sorted arrival prefix < theta,
  /// advance dark schedules to the click watermark `C`, and finalize all
  /// clicks < C through the shared merge + dead-time pass.
  std::vector<double> process_arm(ArmState& arm, const DetectorParams& params,
                                  double bg_rate_hz, double RateSegment::*pwbg_member,
                                  double RateSegment::*pwdark_member,
                                  const detail::ChannelPlan& plan, double theta, double C,
                                  double prev_theta, double prev_c, rng::Xoshiro256& g_bg,
                                  rng::Xoshiro256& g_pwbg, rng::Xoshiro256& g_det,
                                  rng::Xoshiro256& g_dark, rng::Xoshiro256& g_pwdark,
                                  std::uint64_t& violations) {
    const double T = cfg.duration_s;
    // Piecewise schedules are empty unless the spec is PiecewiseRates.
    const std::vector<RateSegment>& segments = plan.piecewise.segments;

    // Backgrounds are complete below theta by construction of their
    // advance target, so they feed straight into the pending arrivals.
    auto& pending = arm.pending_arrivals;
    arm.bg.advance(bg_rate_hz, T, theta, g_bg, detail::push_into(pending));
    arm.pwbg.advance(segments, pwbg_member, T, theta, g_pwbg, detail::push_into(pending));

    // Detect the sorted arrival prefix < theta. Concatenated across
    // windows this visits every arrival in fully sorted order, so the
    // detection stream's draws do not depend on the window size.
    if (!std::is_sorted(pending.begin(), pending.end()))
      std::sort(pending.begin(), pending.end());
    const auto arr_split = std::lower_bound(pending.begin(), pending.end(), theta);
    for (auto it = pending.begin(); it != arr_split; ++it) {
      if (*it < prev_theta) ++violations;
      double click;
      if (detect_photon_click(*it, params, T, g_det, click))
        arm.pending_clicks.push_back(click);
    }
    pending.erase(pending.begin(), arr_split);

    // Dark clicks carry no jitter, so the click watermark C is exact for
    // them: generate straight up to C and finalize everything.
    std::vector<double> darks, pwdarks;
    arm.dark.advance(params.dark_rate_hz, T, C, g_dark, detail::push_into(darks));
    arm.pwdark.advance(segments, pwdark_member, T, C, g_pwdark, detail::push_into(pwdarks));
    std::vector<double> clicks = detail::finalize_clicks(
        arm.pending_clicks, C, darks, pwdarks, params.dead_time_s, arm.dead_last);
    for (double t : clicks)
      if (t < prev_c) ++violations;
    return clicks;
  }

  void process_channel(std::size_t c, double C, bool last,
                       std::vector<double>& sig_col,
                       std::vector<double>& idl_col) {
    QFC_OBS_SPAN("engine.stream.channel", {{"channel", c}});
    ChannelState& st = chans[c];
    const ChannelPairSpec& spec = specs[c];
    const detail::ChannelPlan& plan = plans[c];
    // Watermark ladder for this window: clicks finalize below C, arrivals
    // are detected below theta = C + jitter slack, emission runs to
    // E = theta + pair-delay slack. The last window drains everything.
    const double theta = last ? kInf : C + spill_jit[c];
    const double E = last ? kInf : theta + spill_pair[c];

    PairStreams fresh;
    switch (plan.mode) {
      case EmissionMode::Cw:
        st.cw.advance(plan.cw.pair_rate_hz, plan.cw.duration_s, E, st.rng.pair,
                      detail::pair_emitter(plan.cw, fresh, st.rng.pair));
        break;
      case EmissionMode::Pulsed:
        st.pulsed.advance(plan.pulsed, E, st.rng.pair,
                          detail::pair_emitter(plan.pulsed, fresh, st.rng.pair));
        break;
      case EmissionMode::PiecewiseRates:
        st.pw.advance(plan.piecewise.segments, &RateSegment::pair_rate_hz,
                      plan.piecewise.duration_s, E, st.rng.pair,
                      detail::pair_emitter(plan.piecewise, fresh, st.rng.pair));
        break;
    }
    if (obs::metrics_enabled())
      obs::counter("engine.events_generated").add(fresh.a.size() + fresh.b.size());
    st.a.pending_arrivals.insert(st.a.pending_arrivals.end(), fresh.a.begin(),
                                 fresh.a.end());
    st.b.pending_arrivals.insert(st.b.pending_arrivals.end(), fresh.b.begin(),
                                 fresh.b.end());

    sig_col = process_arm(st.a, spec.detector_signal, spec.background_rate_signal_hz,
                          &RateSegment::background_rate_signal_hz,
                          &RateSegment::dark_rate_signal_hz, plan, theta, C,
                          st.prev_theta, st.prev_c, st.rng.bg_a, st.rng.pwbg_a,
                          st.rng.det_a, st.rng.dark_a, st.rng.pwdark_a, st.violations);
    idl_col = process_arm(st.b, spec.detector_idler, spec.background_rate_idler_hz,
                          &RateSegment::background_rate_idler_hz,
                          &RateSegment::dark_rate_idler_hz, plan, theta, C,
                          st.prev_theta, st.prev_c, st.rng.bg_b, st.rng.pwbg_b,
                          st.rng.det_b, st.rng.dark_b, st.rng.pwdark_b, st.violations);
    if (obs::metrics_enabled())
      obs::counter("engine.clicks_kept").add(sig_col.size() + idl_col.size());
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

    const std::size_t n = chans.size();
    std::vector<std::vector<double>> sig_cols(n), idl_cols(n);
    pool->run(n, [&](std::size_t c) {
      process_channel(c, C, last, sig_cols[c], idl_cols[c]);
    });

    out.events.signal = EventTable::from_columns(std::move(sig_cols));
    out.events.idler = EventTable::from_columns(std::move(idl_cols));
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
  w.f64(impl_->cfg.duration_s);
  w.u64(impl_->cfg.seed);
  w.u64(static_cast<std::uint64_t>(impl_->cfg.num_threads));
  w.u64(static_cast<std::uint64_t>(impl_->cfg.analysis_threads));
  w.f64(impl_->stream.window_s);
  w.f64(impl_->stream.slack_override_s);
  w.u64(impl_->specs.size());
  for (const ChannelPairSpec& s : impl_->specs) save_spec(w, s);
  w.u64(impl_->k);
  w.u64(impl_->reported_violations);
  for (const ChannelState& st : impl_->chans) st.save(w);
  return std::move(w.buf);
}

EventStreamer EventStreamer::restore(const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  r.header(kKindStreamer);
  EngineConfig cfg;
  cfg.duration_s = r.f64();
  cfg.seed = r.u64();
  cfg.num_threads = static_cast<int>(r.u64());
  cfg.analysis_threads = static_cast<int>(r.u64());
  StreamConfig stream;
  stream.window_s = r.f64();
  stream.slack_override_s = r.f64();
  const std::uint64_t n = r.u64();
  std::vector<ChannelPairSpec> specs;
  specs.reserve(n);
  for (std::uint64_t c = 0; c < n; ++c) specs.push_back(load_spec(r));

  // Reconstruct through the normal constructor (full validation), then
  // overwrite the mutable state with the serialized one.
  EventStreamer out(cfg, stream, std::move(specs));
  out.impl_->k = r.u64();
  out.impl_->reported_violations = r.u64();
  for (ChannelState& st : out.impl_->chans) st.load(r);
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

using analysis_detail::kAnalysisChunkEvents;

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

void save_columns(ByteWriter& w, const std::vector<std::vector<double>>& cols) {
  w.u64(cols.size());
  for (const auto& col : cols) w.vec_f64(col);
}

void load_columns(ByteReader& r, std::vector<std::vector<double>>& cols) {
  cols.resize(r.u64());
  for (auto& col : cols) col = r.vec_f64();
}

/// Signal events not yet resolved, per channel, and the one sharded count
/// sweep of every coincidence analysis, batch or streamed.
struct SignalRoll {
  std::vector<std::vector<double>> pending;

  /// Counts, through `count_chunk(channel, first, last, row)`, every signal
  /// event — carried, or in the columns of `signal` (may be null) — whose
  /// full reach lies behind `frontier`, and carries the rest. Resolved
  /// events are swept straight from the window's columns; only the
  /// unresolved tail is copied. The events are cut into chunks of at most
  /// kAnalysisChunkEvents, swept in parallel into per-chunk partial rows of
  /// `row_size` cells when the pool has more than one worker, and added into
  /// `counts` (row `channel`) in chunk order. Counts are integers, so the
  /// result is bitwise identical at every worker count and window size.
  template <class ChunkFn>
  void resolve(const EventTable* signal, double frontier, double reach,
               std::size_t row_size, parallel::WorkerPool* pool,
               std::vector<std::uint64_t>& counts, const ChunkFn& count_chunk) {
    struct Chunk {
      std::size_t ch;
      const double* first;
      const double* last;
    };
    const std::size_t n = pending.size();
    std::vector<Chunk> chunks;
    std::vector<std::size_t> carried_resolved(n);
    std::vector<const double*> tail(n), tail_end(n);
    const auto resolved_end = [&](const double* b, const double* e) {
      return std::partition_point(b, e, [&](double ta) { return ta + reach < frontier; });
    };
    const auto add_chunks = [&](std::size_t c, const double* b, const double* e) {
      for (; b != e; b += std::min<std::ptrdiff_t>(e - b, kAnalysisChunkEvents))
        chunks.push_back({c, b, b + std::min<std::ptrdiff_t>(e - b, kAnalysisChunkEvents)});
    };
    for (std::size_t c = 0; c < n; ++c) {
      auto& p = pending[c];
      const double* b = signal ? signal->channel_begin(c) : nullptr;
      const double* e = signal ? signal->channel_end(c) : nullptr;
      if (!p.empty() && b != e && *b < p.back()) {  // boundary violation
        append_sorted(p, b, e);
        b = e;
      }
      const double* p_end = resolved_end(p.data(), p.data() + p.size());
      carried_resolved[c] = static_cast<std::size_t>(p_end - p.data());
      add_chunks(c, p.data(), p_end);
      tail[c] = carried_resolved[c] == p.size() ? resolved_end(b, e) : b;
      tail_end[c] = e;
      add_chunks(c, b, tail[c]);
    }

    const auto sweep = [&](const Chunk& ck, std::uint64_t* row) {
      QFC_OBS_SPAN("engine.analysis.shard",
                   {{"channel", ck.ch},
                    {"events", static_cast<std::size_t>(ck.last - ck.first)}});
      if (!obs::metrics_enabled()) {
        count_chunk(ck.ch, ck.first, ck.last, row);
        return;
      }
      const std::uint64_t t0 = obs::detail::now_ns();
      count_chunk(ck.ch, ck.first, ck.last, row);
      obs::histogram("engine.analysis.shard_ns").observe(obs::detail::now_ns() - t0);
      obs::counter("engine.analysis.shards").increment();
    };
    if (!pool || pool->size() <= 1 || chunks.size() <= 1) {
      for (const Chunk& ck : chunks) sweep(ck, counts.data() + ck.ch * row_size);
    } else {
      std::vector<std::vector<std::uint64_t>> partials(chunks.size());
      pool->run(chunks.size(), [&](std::size_t i) {
        partials[i].assign(row_size, 0);
        sweep(chunks[i], partials[i].data());
      });
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        std::uint64_t* row = counts.data() + chunks[i].ch * row_size;
        for (std::size_t j = 0; j < row_size; ++j) row[j] += partials[i][j];
      }
    }

    for (std::size_t c = 0; c < n; ++c) {
      auto& p = pending[c];
      p.erase(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(carried_resolved[c]));
      p.insert(p.end(), tail[c], tail_end[c]);
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
  std::shared_ptr<parallel::WorkerPool> pool;
  std::size_t ns = kNoChannels, ni = kNoChannels;
  SignalRoll signal;
  std::vector<double> it;           ///< merged idler times
  std::vector<std::uint32_t> ich;  ///< merged idler channels
  std::vector<std::uint64_t> counts;
  bool finished = false;

  MergedSweep(Kernel k, int num_threads, const char* sweep_name)
      : kernel(std::move(k)),
        name(sweep_name),
        pool(analysis_detail::analysis_pool_for(num_threads)) {}

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
    analysis_detail::MergedView mv = analysis_detail::merge_channels(idl, pool.get());
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
    signal.resolve(sig, frontier, reach, ni * kernel.cells(), pool.get(), counts,
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

  std::vector<std::uint8_t> snapshot(SnapshotKind kind) const {
    if (finished) throw std::logic_error(std::string(name) + ": snapshot after finish");
    ByteWriter w;
    w.header(kind);
    w.u64(ns == kNoChannels ? std::uint64_t(-1) : ns);
    w.u64(ni == kNoChannels ? std::uint64_t(-1) : ni);
    w.vec_f64(it);
    w.vec_u32(ich);
    save_columns(w, signal.pending);
    w.vec_u64(counts);
    return std::move(w.buf);
  }
  void restore(SnapshotKind kind, const std::vector<std::uint8_t>& blob) {
    ByteReader r(blob);
    r.header(kind);
    const std::uint64_t rns = r.u64(), rni = r.u64();
    ns = rns == std::uint64_t(-1) ? kNoChannels : static_cast<std::size_t>(rns);
    ni = rni == std::uint64_t(-1) ? kNoChannels : static_cast<std::size_t>(rni);
    it = r.vec_f64();
    ich = r.vec_u32();
    load_columns(r, signal.pending);
    counts = r.vec_u64();
    finished = false;
    r.expect_end();
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
  std::shared_ptr<parallel::WorkerPool> pool;
  std::size_t nch = kNoChannels;
  std::vector<std::vector<double>> idler;  ///< per-channel columns, trimmed
  SignalRoll signal;
  std::vector<std::uint64_t> counts;       ///< nch x kernel.cells()
  bool finished = false;

  DiagonalSweep(Kernel k, int num_threads, const char* sweep_name)
      : kernel(std::move(k)),
        name(sweep_name),
        pool(analysis_detail::analysis_pool_for(num_threads)) {}

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
    signal.resolve(sig, frontier, reach, kernel.cells(), pool.get(), counts,
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

  std::vector<std::uint8_t> snapshot(SnapshotKind kind) const {
    if (finished) throw std::logic_error(std::string(name) + ": snapshot after finish");
    ByteWriter w;
    w.header(kind);
    w.u64(nch == kNoChannels ? std::uint64_t(-1) : nch);
    save_columns(w, idler);
    save_columns(w, signal.pending);
    w.vec_u64(counts);
    return std::move(w.buf);
  }
  void restore(SnapshotKind kind, const std::vector<std::uint8_t>& blob) {
    ByteReader r(blob);
    r.header(kind);
    const std::uint64_t rn = r.u64();
    nch = rn == std::uint64_t(-1) ? kNoChannels : static_cast<std::size_t>(rn);
    load_columns(r, idler);
    load_columns(r, signal.pending);
    counts = r.vec_u64();
    finished = false;
    r.expect_end();
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
  return impl_->snapshot(kKindCar);
}
void StreamingCarAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  impl_->restore(kKindCar, blob);
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
  return impl_->snapshot(kKindCarPairs);
}
void StreamingCarPairsAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  impl_->restore(kKindCarPairs, blob);
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
  return impl_->snapshot(kKindCountMatrix);
}
void StreamingCountMatrixAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  impl_->restore(kKindCountMatrix, blob);
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
  return impl_->snapshot(kKindCorrelator);
}
void StreamingCorrelatorAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  impl_->restore(kKindCorrelator, blob);
}

// -------------------------------------------- StreamingAllanAccumulator

struct StreamingAllanAccumulator::Impl {
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
  if (impl_->finished)
    throw std::logic_error("StreamingAllanAccumulator: snapshot after finish");
  ByteWriter w;
  w.header(kKindAllan);
  w.u64(impl_->idx);
  w.vec_f64(impl_->buf_a);
  w.vec_f64(impl_->buf_b);
  w.vec_f64(impl_->counts);
  w.f64(impl_->frontier);
  return std::move(w.buf);
}

void StreamingAllanAccumulator::restore(const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  r.header(kKindAllan);
  impl_->idx = r.u64();
  impl_->buf_a = r.vec_f64();
  impl_->buf_b = r.vec_f64();
  impl_->counts = r.vec_f64();
  impl_->frontier = r.f64();
  impl_->finished = false;
  r.expect_end();
}

}  // namespace qfc::detect
