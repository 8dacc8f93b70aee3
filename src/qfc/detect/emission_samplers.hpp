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
/// after the time draw, exactly as in one uninterrupted loop.
///
/// Pair clocks are thinned up front (PairThinning): they draw only the
/// pairs with at least one surviving photon, at the pair rate times p_any,
/// and each drawn pair's arm set is picked by one uniform. The engine folds
/// detector efficiency into the survival probabilities (engine_plan.hpp)
/// and runs its background clocks at rate × efficiency, so every arrival it
/// emits clicks unless jitter pushes it out of the run.

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
      next = rng::unchecked::exponential(g, rate_hz);
      primed = true;
    }
    while (next < duration_s && next < target_s) {
      emit(next);
      next += rng::unchecked::exponential(g, rate_hz);
    }
    if (next >= duration_s) done = true;
  }
};

/// Piecewise-constant-rate Poisson clock; `rate` selects the RateSegment
/// member and every segment runs at that rate times `scale` (the pair
/// thinning p_any, a detector efficiency, or 1 for darks). Each segment
/// restarts the exponential clock at its own rate (memorylessness makes
/// the restart exact). A segment whose start lies
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
               double scale, double duration_s, double target_s, rng::Xoshiro256& g,
               const Emit& emit) {
    if (done) return;
    while (true) {
      if (seg >= segments.size() || seg_start >= duration_s) {
        done = true;
        return;
      }
      const RateSegment& sg = segments[seg];
      const double seg_end = std::min(seg_start + sg.duration_s, duration_s);
      const double r = sg.*rate * scale;
      if (r > 0) {
        if (!primed) {
          if (seg_start >= target_s) return;
          next = seg_start + rng::unchecked::exponential(g, r);
          primed = true;
        }
        while (next < seg_end && next < target_s) {
          emit(next);
          next += rng::unchecked::exponential(g, r);
        }
        if (next < seg_end) return;  // paused mid-segment
      }
      seg_start += sg.duration_s;
      ++seg;
      primed = false;
    }
  }
};

/// Pulse-train pair births. Each slot holds Poisson(mu) pairs, of which
/// Poisson(mu·p_any) survive thinning (`p_any` is PairThinning::p_any), so
/// with mu' = mu·p_any the sampler visits only the slots holding a
/// surviving pair: slot occupancy is Bernoulli with 1 - e^-mu' per slot,
/// so the index gap to the next occupied slot is geometric — sampled
/// exactly as floor(Exp(mu')) — and the pair number of a visited slot is
/// zero-truncated Poisson(mu'). Identical in distribution to a Poisson draw
/// per slot followed by a survival draw per pair, at O(surviving pairs) RNG
/// cost instead of O(slots); comb sources run at mu << 1, where almost
/// every slot is empty. Pauses before an occupied slot whose nominal time
/// reaches the target (the slot's pair number and per-pair draws happen
/// once the target passes it).
struct PulsedState {
  double pulse = 0;
  bool primed = false;
  bool done = false;

  template <class Emit>
  void advance(const PulsedStreamParams& p, double p_any, double target_s,
               rng::Xoshiro256& g, const Emit& emit) {
    if (done) return;
    const double mu = p.mean_pairs_per_pulse * p_any;
    if (!primed) {
      if (mu == 0) {
        done = true;
        return;
      }
      pulse = std::floor(rng::unchecked::exponential(g, mu));
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
        if (double_pulse && rng::unchecked::bernoulli(g, p.late_fraction))
          t0 += p.bin_separation_s;
        if (p.pulse_sigma_s > 0) t0 += rng::unchecked::normal(g, 0.0, p.pulse_sigma_s);
        emit(t0);
      }
      pulse += 1.0 + std::floor(rng::unchecked::exponential(g, mu));
    }
  }
};

/// Thinning of a pair stream to the pairs that can click. e_a and e_b are
/// the per-arm survival probabilities: the channel transmission, times the
/// detector efficiency when the engine plans the channel. A pair survives
/// with p_any = 1 - (1-e_a)(1-e_b), and a surviving pair keeps {a, b}, {a}
/// or {b} in proportion to e_a·e_b, e_a(1-e_b) and (1-e_a)e_b. By Poisson
/// thinning and colouring (Kingman, Poisson Processes, 1993) the surviving
/// arrivals have exactly the joint law of drawing every pair and then one
/// Bernoulli per arm. p_any is written as e_a + e_b(1-e_a) so that an arm
/// at 0 or 1 keeps its edge exactly: e_b = 0 gives p_any = e_a and
/// a_below = 1 (only {a}), e_a = 1 gives a_below = 1 (never {b} alone),
/// e_b = 1 gives both_below = a_below (never {a} alone).
struct PairThinning {
  double p_any = 0;       ///< P(at least one arm survives)
  double both_below = 0;  ///< u < both_below keeps {a, b}
  double a_below = 0;     ///< else u < a_below keeps {a}; otherwise {b}

  PairThinning(double e_a, double e_b) : p_any(std::min(1.0, e_a + e_b * (1.0 - e_a))) {
    if (p_any > 0) {
      both_below = e_a * e_b / p_any;
      a_below = e_a / p_any;
    }
  }
};

/// Emit one surviving pair born at t0: Laplace-split the signal-idler delay
/// symmetrically (`delay_rate` = 2π δν), then one uniform picks the arm set
/// (PairThinning); a kept arm whose time lies in [0, duration) is appended.
/// Shared by all three emission samplers, so the delay, thinning and RNG
/// order are the same in every mode.
inline void emit_pair(double t0, double delay_rate, double duration_s,
                      const PairThinning& thin, PairStreams& s, rng::Xoshiro256& g) {
  // Symmetrize: put half the Laplace delay on each photon so neither arm
  // is systematically early.
  const double delta = rng::unchecked::double_exponential(g, delay_rate);
  const double u = g.uniform();
  const bool keep_a = u < thin.a_below;
  const bool keep_b = u < thin.both_below || !keep_a;
  const double ta = t0 + delta / 2.0;
  const double tb = t0 - delta / 2.0;
  if (keep_a && ta >= 0 && ta < duration_s) s.a.push_back(ta);
  if (keep_b && tb >= 0 && tb < duration_s) s.b.push_back(tb);
}

/// Emitter that turns each surviving pair's birth time into arrivals via
/// emit_pair, for any of the three pair-stream parameter structs. The
/// sampler driving it must run its clock thinned by `thin.p_any`.
template <class Params>
auto pair_emitter(const Params& p, const PairThinning& thin, PairStreams& out,
                  rng::Xoshiro256& g) {
  const double delay_rate = 2.0 * photonics::pi * p.linewidth_hz;
  return [&p, &thin, &out, &g, delay_rate](double t0) {
    emit_pair(t0, delay_rate, p.duration_s, thin, out, g);
  };
}

/// Emitter that appends each event time to `out`.
inline auto push_into(std::vector<double>& out) {
  return [&out](double t) { out.push_back(t); };
}

}  // namespace qfc::detect::detail
