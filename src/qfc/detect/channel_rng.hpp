#pragma once

/// \file channel_rng.hpp
/// Internal: the per-channel RNG sub-stream fork discipline of the event
/// streamer (streaming.cpp), which also drives EventEngine::run.
///
/// Per channel c the engine forks `ch = master.fork(c + 1)` (serially, in
/// channel order) and then derives eleven sub-streams from `ch`,
/// unconditionally and in this fixed order — one per stochastic stage of
/// the per-channel pipeline:
///
///   1 pair emission      2 bg signal        3 bg idler
///   4 pw bg signal       5 pw bg idler
///   6 det signal         7 darks signal     8 pw darks signal
///   9 det idler         10 darks idler     11 pw darks idler
///
/// Detector efficiency is applied by thinning, not by a draw of its own:
/// stream 1 runs the pair clock thinned by T·η and picks each pair's arms,
/// streams 2-5 run the background clocks at rate × η, and the detector
/// streams 6 and 9 draw jitter only.
///
/// Because every stage owns its own stream, pausing one stage at a window
/// boundary cannot shift the draws of any other stage — runs at any two
/// window sizes consume identical per-stream sequences, which is what makes
/// the output bitwise identical at every window size. Streams for stages a spec never exercises (e.g. the
/// piecewise streams of a Cw channel) are forked but simply never drawn
/// from.

#include "qfc/rng/xoshiro.hpp"

namespace qfc::detect::detail {

struct ChannelRngs {
  rng::Xoshiro256 pair;      ///< thinned emission kernel (all modes)
  rng::Xoshiro256 bg_a;      ///< spec-level homogeneous background, signal
  rng::Xoshiro256 bg_b;      ///< spec-level homogeneous background, idler
  rng::Xoshiro256 pwbg_a;    ///< piecewise background segments, signal
  rng::Xoshiro256 pwbg_b;    ///< piecewise background segments, idler
  rng::Xoshiro256 det_a;     ///< detector jitter, signal
  rng::Xoshiro256 dark_a;    ///< detector homogeneous darks, signal
  rng::Xoshiro256 pwdark_a;  ///< piecewise dark segments, signal
  rng::Xoshiro256 det_b;     ///< detector jitter, idler
  rng::Xoshiro256 dark_b;    ///< detector homogeneous darks, idler
  rng::Xoshiro256 pwdark_b;  ///< piecewise dark segments, idler
};

/// Derive the eleven per-stage sub-streams from a channel generator.
/// Braced-init evaluation is sequenced left to right, so the fork order is
/// exactly the documented 1..11.
inline ChannelRngs fork_channel_rngs(rng::Xoshiro256& ch) {
  return ChannelRngs{ch.fork(1), ch.fork(2), ch.fork(3), ch.fork(4),
                     ch.fork(5), ch.fork(6), ch.fork(7), ch.fork(8),
                     ch.fork(9), ch.fork(10), ch.fork(11)};
}

}  // namespace qfc::detect::detail
