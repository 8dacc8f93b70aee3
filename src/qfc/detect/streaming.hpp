#pragma once

/// \file streaming.hpp
/// The detection pipeline: EventStreamer generates the click streams of a
/// run in fixed time windows, and the Streaming*Accumulator classes fold
/// each window into car_matrix / correlate_all results (and
/// StreamingCarPairsAccumulator into the car_matrix diagonal), discarding
/// consumed events as they resolve, so resident memory stays flat no matter
/// how long the run.
/// EventEngine::run is this pipeline drained in one window, and the
/// whole-table analyzers of event_engine.hpp push one whole-run window.
///
/// Where the analysis runs: the diagonal accumulators (DiagonalAccumulator:
/// StreamingCarPairsAccumulator, StreamingCorrelatorAccumulator) read signal
/// channel k against idler channel k only, so EventStreamer::next(out, acc)
/// folds channel k's window into them inside channel k's generation task,
/// right after its clicks are finalized; their time is part of the
/// "engine.stream.channel" span. The full matrix (StreamingCarAccumulator)
/// needs every idler channel and is pushed serially after next().
///
/// Determinism contract: every per-stage RNG sub-stream (channel_rng.hpp)
/// is paused — never re-seeded or reordered — at window boundaries, and
/// every analysis count goes through the same inline per-event functions
/// (analysis_sweep.hpp) in integer counts. A diagonal accumulator's state
/// for channel k (carried signal and idler events, count row) is
/// touched only by the task that owns channel k. Consequently output is
/// **bitwise identical** at every window size and every generation thread
/// count (EngineConfig::num_threads, one task per channel pair).
///
/// Window boundary handling: the delay and jitter distributions have
/// unbounded support, so a photon born inside window k can click inside
/// window k+1 (and, with probability ~e^-64 at the default slack of 32
/// Laplace scales / 16 jitter sigmas, even earlier than a window already
/// emitted). The streamer generates ahead of the finalize watermark by a
/// per-channel slack, carries pending arrivals / clicks across windows,
/// and counts the astronomically rare stragglers that still land behind an
/// emitted boundary in boundary_violations() (they are folded into the
/// current window, keeping every column sorted, instead of being dropped).
/// StreamConfig::slack_override_s exists so tests can force that path.
///
/// Validation: every accumulator constructor (and so every batch analyzer)
/// throws std::invalid_argument for a NaN or ±inf window, spacing, bin
/// width or range.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "qfc/detect/event_engine.hpp"

namespace qfc::detect {

namespace detail {
struct DiagonalSweepBase;  // streaming.cpp
}

/// An online analysis of signal channel k against idler channel k only,
/// which EventStreamer::next(out, acc) feeds inside its channel tasks.
/// Implemented by StreamingCarPairsAccumulator and
/// StreamingCorrelatorAccumulator; holds no state of its own.
class DiagonalAccumulator {
 protected:
  DiagonalAccumulator() = default;
  ~DiagonalAccumulator() = default;

 private:
  friend class EventStreamer;
  virtual detail::DiagonalSweepBase& sweep() = 0;
};

/// Streaming-specific knobs; generation physics and seeds come from
/// EngineConfig / ChannelPairSpec.
struct StreamConfig {
  /// Window length in seconds. The run is split into
  /// ceil(duration_s / window_s) fixed windows; window k covers
  /// [k * window_s, min((k+1) * window_s, duration_s)).
  double window_s = 1.0;
  /// When > 0, replaces the automatic per-channel look-ahead slack (32
  /// Laplace delay scales for pair emission, 16 sigmas for detector
  /// jitter) with this many seconds — only useful to force boundary
  /// violations in tests. <= 0 selects the automatic slack.
  double slack_override_s = 0;
};

/// One emitted window: the clicks of both detector banks restricted to
/// [t_begin_s, t_end_s), in the EventTable layout. Concatenating the
/// per-channel columns of every window gives the EventEngine::run result.
struct StreamWindow {
  std::size_t index = 0;
  double t_begin_s = 0;
  double t_end_s = 0;
  bool last = false;
  EngineResult events;
};

/// Windowed generator; EventEngine::run is one window of it. Usage:
///
///   EventStreamer s(cfg, {.window_s = 10.0}, specs);
///   StreamWindow w;
///   while (s.next(w)) accumulator.push(w);      // full CAR matrix
///   while (s.next(w, pairs)) {}                 // or: diagonal, in-task
///   auto result = accumulator.finish();
class EventStreamer {
 public:
  /// Throws std::invalid_argument for a bad config or spec (the channel
  /// index prefixes spec errors) or StreamConfig::window_s <= 0.
  EventStreamer(const EngineConfig& cfg, const StreamConfig& stream,
                std::vector<ChannelPairSpec> channels);
  ~EventStreamer();

  /// Produce the next window into `out`. Returns false (leaving `out`
  /// untouched) once every window has been emitted.
  bool next(StreamWindow& out);

  /// next(out), and fold every channel's window into `diagonal` (frontier
  /// out.t_end_s) inside that channel's generation task. Throws what the
  /// accumulator's checks throw (std::logic_error once it has finished,
  /// std::invalid_argument when its channel count differs) before any
  /// generation, leaving the streamer where it was.
  bool next(StreamWindow& out, DiagonalAccumulator& diagonal);

  /// Clicks or arrivals that materialized behind an already-finalized
  /// window boundary (see file comment). Always 0 at the default slack in
  /// any realistic run; nonzero means window contents are no longer
  /// bitwise comparable across window sizes.
  std::uint64_t boundary_violations() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Window length that bounds the memory of a run over `channels`: about
/// 10^5 expected clicks across all channels per window, capped at
/// `duration_s`. The expected click rate per channel is
/// mean_pair_rate_hz x (transmission x efficiency, summed over both arms)
/// plus each arm's background x efficiency and detector dark rate, spec-level
/// and (PiecewiseRates) averaged over the segments like the pair rate.
double bounded_window_s(const std::vector<ChannelPairSpec>& channels, double duration_s);

/// Stream `channels` under `cfg` in windows of bounded_window_s, fold them
/// into `diagonal` in-task when it is not null (EventStreamer::next(out,
/// diagonal)), and hand every window, in order, to `on_window` when it is
/// set.
void for_each_window(const EngineConfig& cfg, std::vector<ChannelPairSpec> channels,
                     const std::function<void(const StreamWindow&)>& on_window,
                     DiagonalAccumulator* diagonal = nullptr);

/// Online car_matrix: push every window, then finish() returns exactly
/// what `car_matrix(signal, idler, ...)` returns for the whole run —
/// bitwise, at every window size. The trailing `num_threads` of this and
/// the other Streaming*Accumulator constructors is inert, as in
/// correlate_all.
class StreamingCarAccumulator {
 public:
  StreamingCarAccumulator(double window_s, double side_window_spacing_s,
                          int num_side_windows = 10, int num_threads = 0);
  ~StreamingCarAccumulator();

  void push(const StreamWindow& w);
  CarMatrix finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Online diagonal of car_matrix: signal channel k against idler channel k
/// only, the per-channel-pair CAR a comb experiment reports. finish()
/// returns one CarResult per channel pair, element k bitwise equal to
/// `car_matrix(signal, idler, ...).at(k, k)` for the whole run — at every
/// window size. Each signal event is swept against its own idler column only,
/// so the cost is O(events x own-channel idler density) instead of the full
/// matrix's O(events x all-channel density), and no merged idler view is
/// built. Constructor arguments and validation are StreamingCarAccumulator's.
/// Feed it through EventStreamer::next(out, acc), which runs each channel's
/// sweep inside that channel's generation task; push() is the same sweep
/// run serially over a finished window, and throws std::invalid_argument
/// when the window's signal and idler channel counts differ. Use
/// StreamingCarAccumulator when off-diagonal (cross-channel) cells are
/// needed.
class StreamingCarPairsAccumulator final : public DiagonalAccumulator {
 public:
  StreamingCarPairsAccumulator(double window_s, double side_window_spacing_s,
                               int num_side_windows = 10, int num_threads = 0);
  ~StreamingCarPairsAccumulator();

  void push(const StreamWindow& w);
  std::vector<CarResult> finish();

 private:
  detail::DiagonalSweepBase& sweep() override;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Online correlate_all (diagonal signal-k x idler-k Δt histograms), fed
/// through EventStreamer::next(out, acc). finish() returns element k
/// bitwise equal to `correlate_all(signal, idler, ...)[k]` for the whole
/// run, at every window size.
class StreamingCorrelatorAccumulator final : public DiagonalAccumulator {
 public:
  StreamingCorrelatorAccumulator(double bin_width_s, double range_s,
                                 int num_threads = 0);
  ~StreamingCorrelatorAccumulator();

  std::vector<CoincidenceHistogram> finish();

 private:
  detail::DiagonalSweepBase& sweep() override;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qfc::detect
