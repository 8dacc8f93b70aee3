#pragma once

/// \file emission_samplers.hpp
/// Internal: the one emission kernel per mode. Each sampler is a resumable
/// loop over one dedicated RNG sub-stream (channel_rng.hpp) that emits every
/// event before an advance target and *pauses* when the next one would reach
/// it. The batch generators of event_stream.hpp advance a fresh sampler to
/// +∞; the windowed EventStreamer (streaming.hpp) advances one per window.
/// Either way the concatenated output consumes exactly the same draw
/// sequence, which is the whole window-size invariance argument. Not
/// installed API; include only from qfc::detect translation units.
///
/// `emit(t)` receives each event time in order. Pair emission passes
/// pair_emitter(), whose per-pair draws come from the same stream right
/// after the time draw, exactly as in one uninterrupted loop. Each sampler's
/// `fields` lists its position once, in snapshot order; the blob writer and
/// reader of streaming.cpp both visit that list.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qfc/detect/event_stream.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::detect::detail {

/// Homogeneous Poisson clock: every t < min(target, duration) at rate_hz.
/// Drives CW pair emission, spec-level backgrounds and detector darks.
struct ExpState {
  double next = 0;
  bool primed = false;
  bool done = false;

  template <class Emit>
  void advance(double rate_hz, double duration_s, double target_s, rng::Xoshiro256& g,
               const Emit& emit) {
    if (done) return;
    if (!primed) {
      if (rate_hz <= 0) {
        done = true;  // nothing is drawn at rate 0
        return;
      }
      next = rng::sample_exponential(g, rate_hz);
      primed = true;
    }
    while (next < duration_s && next < target_s) {
      emit(next);
      next += rng::sample_exponential(g, rate_hz);
    }
    if (next >= duration_s) done = true;
  }

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.next, s.primed, s.done);
  }
};

/// Piecewise-constant-rate Poisson clock; `rate` selects the RateSegment
/// member. Each segment restarts the exponential clock at its own rate
/// (memorylessness makes the restart exact). A segment whose start lies
/// beyond the target is left unprimed: its first draw happens once the
/// target reaches it, so the sequence does not depend on where a pause
/// falls. Drives piecewise pair emission, backgrounds and darks.
struct PwState {
  std::uint64_t seg = 0;
  double seg_start = 0;
  double next = 0;
  bool primed = false;
  bool done = false;

  template <class Emit>
  void advance(const std::vector<RateSegment>& segments, double RateSegment::*rate,
               double duration_s, double target_s, rng::Xoshiro256& g, const Emit& emit) {
    if (done) return;
    while (true) {
      if (seg >= segments.size() || seg_start >= duration_s) {
        done = true;
        return;
      }
      const RateSegment& sg = segments[seg];
      const double seg_end = std::min(seg_start + sg.duration_s, duration_s);
      const double r = sg.*rate;
      if (r > 0) {
        if (!primed) {
          if (seg_start >= target_s) return;
          next = seg_start + rng::sample_exponential(g, r);
          primed = true;
        }
        while (next < seg_end && next < target_s) {
          emit(next);
          next += rng::sample_exponential(g, r);
        }
        if (next < seg_end) return;  // paused mid-segment
      }
      seg_start += sg.duration_s;
      ++seg;
      primed = false;
    }
  }

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.seg, s.seg_start, s.next, s.primed, s.done);
  }
};

/// Pulse-train pair births. Visits only the occupied pulse slots: slot
/// occupancy is Bernoulli with p_occ = 1 - e^-mu per slot, so the index gap
/// to the next occupied slot is geometric — sampled exactly as
/// floor(Exp(mu)) — and the pair number of a visited slot is zero-truncated
/// Poisson. Identical in distribution to a Poisson draw per slot, at
/// O(emitted pairs) RNG cost instead of O(slots); comb sources run at
/// mu << 1, where almost every slot is empty. Pauses before an occupied
/// slot whose nominal time reaches the target (the slot's pair number and
/// per-pair draws happen once the target passes it).
struct PulsedState {
  double pulse = 0;
  bool primed = false;
  bool done = false;

  template <class Emit>
  void advance(const PulsedStreamParams& p, double target_s, rng::Xoshiro256& g,
               const Emit& emit) {
    if (done) return;
    const double mu = p.mean_pairs_per_pulse;
    if (!primed) {
      if (mu == 0) {
        done = true;
        return;
      }
      pulse = std::floor(rng::sample_exponential(g, mu));
      primed = true;
    }
    const double period = 1.0 / p.repetition_rate_hz;
    const bool double_pulse = p.bin_separation_s > 0;
    for (;;) {
      const double t_pulse = pulse * period;
      if (t_pulse >= p.duration_s) {
        done = true;
        return;
      }
      if (t_pulse >= target_s) return;  // paused before this slot
      const std::uint64_t n = rng::sample_zero_truncated_poisson(g, mu);
      for (std::uint64_t i = 0; i < n; ++i) {
        double t0 = t_pulse;
        if (double_pulse && rng::sample_bernoulli(g, p.late_fraction))
          t0 += p.bin_separation_s;
        if (p.pulse_sigma_s > 0) t0 += rng::sample_normal(g, 0.0, p.pulse_sigma_s);
        emit(t0);
      }
      pulse += 1.0 + std::floor(rng::sample_exponential(g, mu));
    }
  }

  template <class Self, class Ar> static void fields(Self& s, Ar& ar) {
    ar(s.pulse, s.primed, s.done);
  }
};

/// Emitter that turns each pair birth time into arrivals via emit_pair,
/// for any of the three pair-stream parameter structs.
template <class Params>
auto pair_emitter(const Params& p, PairStreams& out, rng::Xoshiro256& g) {
  const double delay_scale = 1.0 / (2.0 * photonics::pi * p.linewidth_hz);
  return [&p, &out, &g, delay_scale](double t0) {
    emit_pair(t0, delay_scale, p.duration_s, p.transmission_a, p.transmission_b, out, g);
  };
}

/// Emitter that appends each event time to `out`.
inline auto push_into(std::vector<double>& out) {
  return [&out](double t) { out.push_back(t); };
}

}  // namespace qfc::detect::detail
