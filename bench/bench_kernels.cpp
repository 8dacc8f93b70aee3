// Microbenchmarks of the numerical kernels that dominate the reproduction
// runtime: Hermitian eigendecomposition, SVD / Schmidt decomposition,
// Monte-Carlo stream generation, coincidence correlation, and MLE
// tomography (2 and 4 qubits, and a two-qudit d = 7 MUB reconstruction).
// Emits the same machine-readable JSON envelope as bench_event_engine /
// bench_linalg_backends ({bench, mode, nproc, rows}) so the perf trajectory
// accumulates run over run. Each MLE row also records its solver steps,
// certified likelihood gap and convergence flag; the bench exits 1 when an
// MLE row did not converge.
//
// Usage: bench_kernels [--smoke] [--json PATH]
//   --smoke   fewer repetitions (CI)
//   --json    write machine-readable results (default BENCH_kernels.json)

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "qfc/core/four_photon.hpp"
#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/svd.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/qudit/mub.hpp"
#include "qfc/rng/xoshiro.hpp"
#include "qfc/sfwm/jsa.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using namespace qfc;
using Clock = std::chrono::steady_clock;

linalg::CMat random_hermitian(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  linalg::CMat a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = linalg::cplx(g.uniform(-1, 1), g.uniform(-1, 1));
  return linalg::hermitian_part(a);
}

struct Row {
  std::string name;
  std::size_t n = 0;
  int reps = 0;
  double rep_ms = 0;
  /// Set on MLE rows: the health of the last repetition's estimate.
  std::optional<tomo::MleResult> mle;
};

/// Time `fn` over `reps` repetitions, returning mean ms per repetition.
template <class F>
Row time_kernel(const std::string& name, std::size_t n, int reps, F&& fn) {
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) fn();
  const double total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return Row{name, n, reps, total_ms / reps, std::nullopt};
}

/// time_kernel for an MLE: `fn` returns a tomo::MleResult, kept on the row.
template <class F>
Row time_mle(const std::string& name, std::size_t n, int reps, F&& fn) {
  std::optional<tomo::MleResult> last;
  Row row = time_kernel(name, n, reps, [&] { last = fn(); });
  row.mle = std::move(last);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, json_path] = bench::parse_flags(argc, argv, "BENCH_kernels.json");

  bench::header("P0  bench_kernels",
                "microbenchmark trajectory of the dominant numerical kernels "
                "(eig, Schmidt/SVD, stream generation, correlation, MLE)");

  const int rep_scale = smoke ? 1 : 4;
  std::vector<Row> rows;

  for (const std::size_t n : {8u, 16u, 32u}) {
    const auto a = random_hermitian(n, 42);
    rows.push_back(time_kernel("hermitian_eig", n, 20 * rep_scale, [&] {
      auto e = linalg::hermitian_eig(a);
      (void)e;
    }));
  }

  for (const std::size_t n : {16u, 32u, 64u}) {
    sfwm::JsaParams p;
    p.pump_bandwidth_hz = 800e6;
    p.ring_linewidth_s_hz = 800e6;
    p.ring_linewidth_i_hz = 800e6;
    p.grid_points = n;
    const auto jsa = sfwm::sample_jsa(p);
    rows.push_back(time_kernel("schmidt_decompose", n, 10 * rep_scale, [&] {
      auto r = sfwm::schmidt_decompose(jsa);
      (void)r;
    }));
  }

  {
    rng::Xoshiro256 g(7);
    detect::PairStreamParams p;
    p.pair_rate_hz = 100e3;
    p.linewidth_hz = 100e6;
    p.duration_s = 1.0;
    rows.push_back(time_kernel("pair_stream_generation", 100000, 5 * rep_scale, [&] {
      auto s = detect::generate_pair_arrivals(p, g);
      (void)s;
    }));

    const auto s = detect::generate_pair_arrivals(p, g);
    rows.push_back(time_kernel("coincidence_correlation", 100000, 5 * rep_scale, [&] {
      auto h = detect::correlate(s.a, s.b, 1e-9, 50e-9);
      (void)h;
    }));
  }

  {
    rng::Xoshiro256 g(9);
    const auto rho = quantum::werner_phi(0.83);
    rows.push_back(time_kernel("tomo_simulate_counts", 4, 10 * rep_scale, [&] {
      auto data = tomo::simulate_counts(rho, 500.0, {}, g);
      (void)data;
    }));

    rng::Xoshiro256 g2(10);
    const auto data = tomo::simulate_counts(rho, 200.0, {}, g2);
    rows.push_back(time_mle("tomo_mle", 4, 2 * rep_scale,
                            [&] { return tomo::maximum_likelihood(data); }));

    // The four_photon scenario's tomography: 4 qubits, 60 shots per setting
    // with its default analyzer-phase and accidental noise.
    rng::Xoshiro256 g4(11);
    const quantum::DensityMatrix pair = quantum::werner_phi(0.9);
    const auto data4 = tomo::simulate_counts(pair.tensor(pair), 60.0,
                                             core::FourPhotonConfig{}.tomo_noise, g4);
    rows.push_back(time_mle("tomo_mle4", 16, 2 * rep_scale,
                            [&] { return tomo::maximum_likelihood(data4); }));
  }

  {
    // bench_qudit_cglmp's d = 7 MUB tomography: two qudits, 20000 shots per
    // setting, default options.
    rng::Xoshiro256 g(12);
    const quantum::DensityMatrix rho(quantum::maximally_entangled(7));
    const tomo::BasisSet mubs = qudit::mub_bases(7);
    const auto data = tomo::simulate_counts(rho, mubs, 20000.0, 0.0, g);
    rows.push_back(time_mle("mub_mle_d7", 49, rep_scale,
                            [&] { return tomo::maximum_likelihood(data, mubs); }));
  }

  std::printf("%-26s %8s %6s %12s %6s %10s\n", "kernel", "n", "reps", "ms/rep", "steps",
              "MLE gap");
  bool all_converged = true;
  for (const auto& r : rows) {
    std::printf("%-26s %8zu %6d %12.3f", r.name.c_str(), r.n, r.reps, r.rep_ms);
    if (r.mle) std::printf(" %6d %10.1e%s", r.mle->iterations, r.mle->likelihood_gap,
                           r.mle->converged ? "" : "  NOT CONVERGED");
    std::printf("\n");
    all_converged &= !r.mle || r.mle->converged;
  }

  using qfc::io::Json;
  Json json_rows = Json::make_array();
  for (const Row& r : rows) {
    Json row = Json::make_object(
        {{"kernel", r.name}, {"n", r.n}, {"reps", r.reps}, {"rep_ms", r.rep_ms}});
    if (r.mle) {
      row.set("iterations", r.mle->iterations);
      row.set("likelihood_gap", r.mle->likelihood_gap);
      row.set("converged", r.mle->converged);
    }
    json_rows.push_back(std::move(row));
  }
  bench::write_envelope(json_path, "kernels", smoke, {{"rows", std::move(json_rows)}});

  bench::verdict(all_converged, "kernel timings recorded (" + std::to_string(rows.size()) +
                                    " rows); every MLE row converged");
  return all_converged ? 0 : 1;
}
