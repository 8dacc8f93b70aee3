#include "qfc/qudit/mub.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::qudit {

using linalg::cplx;

bool is_prime(std::size_t d) {
  if (d < 2) return false;
  for (std::size_t f = 2; f * f <= d; ++f)
    if (d % f == 0) return false;
  return true;
}

std::vector<CMat> mub_bases(std::size_t d) {
  if (!is_prime(d) || d > 64)
    throw std::invalid_argument("mub_bases: d must be prime (and <= 64)");

  std::vector<CMat> bases;
  bases.reserve(d + 1);
  bases.push_back(CMat::identity(d));

  if (d == 2) {
    // The Gauss-sum construction below needs odd d; the qubit MUB triple is
    // the familiar Z, X, Y eigenbases.
    const double r = 1.0 / std::sqrt(2.0);
    bases.push_back(CMat{{cplx(r, 0), cplx(r, 0)}, {cplx(r, 0), cplx(-r, 0)}});
    bases.push_back(CMat{{cplx(r, 0), cplx(r, 0)}, {cplx(0, r), cplx(0, -r)}});
    return bases;
  }

  // Wootters–Fields for odd prime d: basis b (1..d), column k has entries
  // (1/√d) ω^{b j² + k j}; |Gauss sum| = √d makes any two bases unbiased.
  const double norm = 1.0 / std::sqrt(static_cast<double>(d));
  for (std::size_t b = 1; b <= d; ++b) {
    CMat m(d, d);
    for (std::size_t j = 0; j < d; ++j)
      for (std::size_t k = 0; k < d; ++k) {
        const std::size_t e = (b * j * j + k * j) % d;
        const double theta =
            2.0 * photonics::pi * static_cast<double>(e) / static_cast<double>(d);
        m(j, k) = norm * cplx(std::cos(theta), std::sin(theta));
      }
    bases.push_back(std::move(m));
  }
  return bases;
}

std::uint64_t MubSettingCounts::total() const {
  std::uint64_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

namespace {

CVec basis_column(const CMat& basis, std::size_t k) {
  CVec v(basis.rows());
  for (std::size_t j = 0; j < basis.rows(); ++j) v[j] = basis(j, k);
  return v;
}

/// The per-particle MUB basis columns whose Kronecker product is joint
/// outcome `o` (mixed-radix over d per particle, particle 0 slowest) of the
/// setting with the given per-particle MUB indices.
std::vector<CVec> setting_factors(const std::vector<CMat>& mubs,
                                  const std::vector<std::size_t>& bases, std::size_t d,
                                  std::size_t o) {
  std::vector<CVec> factors(bases.size());
  std::size_t rem = o;
  for (std::size_t q = bases.size(); q-- > 0;) {
    factors[q] = basis_column(mubs[bases[q]], rem % d);
    rem /= d;
  }
  return factors;
}

/// Dense projector onto that joint outcome.
CMat setting_projector(const std::vector<CMat>& mubs,
                       const std::vector<std::size_t>& bases, std::size_t d,
                       std::size_t o) {
  CMat proj;
  for (const CVec& v : setting_factors(mubs, bases, d, o)) {
    const CMat p1 = linalg::outer(v, v);
    proj = proj.empty() ? p1 : linalg::kron(proj, p1);
  }
  return proj;
}

/// Its unit vector: setting_projector(...) = |v⟩⟨v|.
CVec setting_vector(const std::vector<CMat>& mubs, const std::vector<std::size_t>& bases,
                    std::size_t d, std::size_t o) {
  CVec vec;
  for (const CVec& v : setting_factors(mubs, bases, d, o))
    vec = vec.empty() ? v : linalg::kron(vec, v);
  return vec;
}

std::size_t checked_particles(const std::vector<MubSettingCounts>& data, std::size_t d,
                              std::size_t num_particles) {
  if (num_particles == 0 || num_particles > 2)
    throw std::invalid_argument("mub tomography: only 1- and 2-particle registers");
  if (data.empty()) throw std::invalid_argument("mub tomography: empty data");
  std::size_t dim = 1;
  for (std::size_t q = 0; q < num_particles; ++q) dim *= d;
  std::size_t expected_settings = 1;
  for (std::size_t q = 0; q < num_particles; ++q) expected_settings *= d + 1;
  if (data.size() != expected_settings)
    throw std::invalid_argument("mub tomography: incomplete setting set");
  std::vector<bool> seen(expected_settings, false);
  for (const auto& sc : data) {
    if (sc.bases.size() != num_particles || sc.counts.size() != dim)
      throw std::invalid_argument("mub tomography: malformed setting");
    std::size_t key = 0;
    for (std::size_t b : sc.bases) {
      if (b > d) throw std::invalid_argument("mub tomography: basis index out of range");
      key = key * (d + 1) + b;
    }
    if (seen[key])
      throw std::invalid_argument("mub tomography: duplicate setting");
    seen[key] = true;
  }
  return dim;
}

/// Single-particle MUB inversion from a (d+1) x d table of outcome
/// probabilities: ρ = Σ_{b,k} p(k|b) Π_{b,k} − I.
CMat invert_single(const std::vector<CMat>& mubs, const std::vector<linalg::RVec>& p,
                   std::size_t d) {
  CMat rho(d, d);
  for (std::size_t b = 0; b <= d; ++b)
    for (std::size_t k = 0; k < d; ++k) {
      const CVec v = basis_column(mubs[b], k);
      CMat proj = linalg::outer(v, v);
      proj *= cplx(p[b][k], 0);
      rho += proj;
    }
  rho -= linalg::to_complex(linalg::RMat::identity(d));
  return rho;
}

}  // namespace

std::vector<MubSettingCounts> simulate_mub_counts(const quantum::DensityMatrix& rho,
                                                  double shots_per_setting,
                                                  rng::Xoshiro256& g) {
  if (shots_per_setting <= 0)
    throw std::invalid_argument("simulate_mub_counts: shots_per_setting <= 0");
  const std::size_t n = rho.num_particles();
  if (n == 0 || n > 2)
    throw std::invalid_argument("simulate_mub_counts: only 1- and 2-particle registers");
  const std::size_t d = rho.dims()[0];
  for (std::size_t dk : rho.dims())
    if (dk != d)
      throw std::invalid_argument("simulate_mub_counts: unequal particle dimensions");
  const auto mubs = mub_bases(d);

  std::size_t num_settings = 1, dim = 1;
  for (std::size_t q = 0; q < n; ++q) {
    num_settings *= d + 1;
    dim *= d;
  }

  std::vector<MubSettingCounts> out;
  out.reserve(num_settings);
  for (std::size_t sidx = 0; sidx < num_settings; ++sidx) {
    MubSettingCounts sc;
    sc.bases.resize(n);
    std::size_t rem = sidx;
    for (std::size_t q = n; q-- > 0;) {
      sc.bases[q] = rem % (d + 1);
      rem /= d + 1;
    }
    sc.counts.resize(dim);
    for (std::size_t o = 0; o < dim; ++o) {
      const double p = rho.probability(setting_projector(mubs, sc.bases, d, o));
      sc.counts[o] = rng::sample_poisson(g, shots_per_setting * p);
    }
    out.push_back(std::move(sc));
  }
  return out;
}

CMat mub_linear_inversion(const std::vector<MubSettingCounts>& data, std::size_t d,
                          std::size_t num_particles) {
  const std::size_t dim = checked_particles(data, d, num_particles);
  const auto mubs = mub_bases(d);

  if (num_particles == 1) {
    std::vector<linalg::RVec> p(d + 1, linalg::RVec(d, 0.0));
    for (const auto& sc : data) {
      const double tot = static_cast<double>(sc.total());
      if (tot <= 0) continue;
      for (std::size_t k = 0; k < d; ++k)
        p[sc.bases[0]][k] = static_cast<double>(sc.counts[k]) / tot;
    }
    return invert_single(mubs, p, d);
  }

  // Two particles. The product-MUB 2-design identity gives
  //   S ≡ Σ_{b,b',k,k'} p(k,k'|b,b') Π_{b,k} ⊗ Π_{b',k'}
  //     = ρ + ρ_A ⊗ I + I ⊗ ρ_B + I ⊗ I,
  // so ρ = S − ρ_A⊗I − I⊗ρ_B − I⊗I with the marginals reconstructed from
  // the same data via the single-particle identity (averaged over the other
  // side's settings).
  CMat s(dim, dim);
  std::vector<linalg::RVec> pa(d + 1, linalg::RVec(d, 0.0));
  std::vector<linalg::RVec> pb(d + 1, linalg::RVec(d, 0.0));
  for (const auto& sc : data) {
    const double tot = static_cast<double>(sc.total());
    if (tot <= 0) continue;
    for (std::size_t k = 0; k < d; ++k)
      for (std::size_t l = 0; l < d; ++l) {
        const double p = static_cast<double>(sc.counts[k * d + l]) / tot;
        if (p == 0) continue;
        const CVec va = basis_column(mubs[sc.bases[0]], k);
        const CVec vb = basis_column(mubs[sc.bases[1]], l);
        CMat term = linalg::kron(linalg::outer(va, va), linalg::outer(vb, vb));
        term *= cplx(p, 0);
        s += term;
        // Marginals: each side's outcome distribution, averaged over the
        // (d+1) settings of the other side.
        pa[sc.bases[0]][k] += p / static_cast<double>(d + 1);
        pb[sc.bases[1]][l] += p / static_cast<double>(d + 1);
      }
  }

  const CMat rho_a = invert_single(mubs, pa, d);
  const CMat rho_b = invert_single(mubs, pb, d);
  const CMat eye = linalg::to_complex(linalg::RMat::identity(d));

  CMat rho = s;
  rho -= linalg::kron(rho_a, eye);
  rho -= linalg::kron(eye, rho_b);
  rho -= linalg::kron(eye, eye);
  return rho;
}

MubMleResult mub_maximum_likelihood(const std::vector<MubSettingCounts>& data,
                                    std::size_t d, std::size_t num_particles,
                                    const tomo::MleOptions& opts) {
  checked_particles(data, d, num_particles);
  const auto mubs = mub_bases(d);

  std::vector<tomo::ProjectorTerm> terms;
  for (const auto& sc : data)
    for (std::size_t o = 0; o < sc.counts.size(); ++o) {
      if (sc.counts[o] == 0) continue;
      terms.push_back(tomo::ProjectorTerm{setting_vector(mubs, sc.bases, d, o),
                                          static_cast<double>(sc.counts[o])});
    }

  const CMat seed = linalg::project_to_density_matrix(
      mub_linear_inversion(data, d, num_particles));
  tomo::RrrResult core = tomo::rrr_reconstruct(terms, seed, opts);

  quantum::Dims dims(num_particles, d);
  MubMleResult res{quantum::DensityMatrix(std::move(core.rho), std::move(dims), 1e-6),
                   core.iterations, core.converged, core.log_likelihood};
  return res;
}

}  // namespace qfc::qudit
