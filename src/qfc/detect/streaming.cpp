#include "qfc/detect/streaming.hpp"

#include <algorithm>
#include <cmath>
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
  /// This window's finalized clicks; refilled every window, keeping its
  /// capacity.
  std::vector<double> clicks;
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
};

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

EventStreamer::~EventStreamer() = default;

bool EventStreamer::next(StreamWindow& out) { return impl_->next(out); }
std::uint64_t EventStreamer::boundary_violations() const {
  return impl_->total_violations();
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
};

using CarSweep = MergedSweep<CarKernel>;
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

void StreamingCarAccumulator::push(const StreamWindow& w) {
  QFC_OBS_SPAN("engine.stream.car_push", {{"events", w.events.signal.size()}});
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
CarMatrix StreamingCarAccumulator::finish() { return finish_car(*impl_); }

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

void StreamingCarPairsAccumulator::push(const StreamWindow& w) {
  QFC_OBS_SPAN("engine.stream.car_pairs_push", {{"events", w.events.signal.size()}});
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
std::vector<CarResult> StreamingCarPairsAccumulator::finish() {
  return finish_car_pairs(*impl_);
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

void StreamingCorrelatorAccumulator::push(const StreamWindow& w) {
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
std::vector<CoincidenceHistogram> StreamingCorrelatorAccumulator::finish() {
  return finish_histograms(*impl_);
}

}  // namespace qfc::detect
