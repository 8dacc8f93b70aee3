#include "qfc/qudit/mub.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/photonics/constants.hpp"

namespace qfc::qudit {

using linalg::cplx;

bool is_prime(std::size_t d) {
  if (d < 2) return false;
  for (std::size_t f = 2; f * f <= d; ++f)
    if (d % f == 0) return false;
  return true;
}

tomo::BasisSet mub_bases(std::size_t d) {
  if (!is_prime(d) || d > 64)
    throw std::invalid_argument("mub_bases: d must be prime (and <= 64)");

  tomo::BasisSet bases;
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

namespace {

/// Single-particle MUB inversion from a (d+1) x d table of outcome
/// probabilities: ρ = Σ_{b,k} p(k|b) Π_{b,k} − I.
CMat invert_single(const tomo::BasisSet& mubs, const std::vector<linalg::RVec>& p,
                   std::size_t d) {
  CMat rho(d, d);
  for (std::size_t b = 0; b <= d; ++b)
    for (std::size_t k = 0; k < d; ++k) {
      CMat proj = tomo::outcome_projector({mubs[b]}, k);
      proj *= cplx(p[b][k], 0);
      rho += proj;
    }
  rho -= linalg::to_complex(linalg::RMat::identity(d));
  return rho;
}

}  // namespace

std::vector<tomo::SettingCounts> simulate_mub_counts(const quantum::DensityMatrix& rho,
                                                     double shots_per_setting,
                                                     rng::Xoshiro256& g) {
  if (rho.num_particles() > 2)
    throw std::invalid_argument("simulate_mub_counts: only 1- and 2-particle registers");
  return tomo::simulate_counts(rho, mub_bases(rho.dims()[0]), shots_per_setting, 0.0, g);
}

CMat mub_linear_inversion(const std::vector<tomo::SettingCounts>& data, std::size_t d,
                          std::size_t num_particles) {
  const auto mubs = mub_bases(d);
  if (num_particles > 2 || tomo::checked_particles(data, mubs) != num_particles)
    throw std::invalid_argument(
        "mub tomography: only 1- and 2-particle registers, matching the data");

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
  CMat s(d * d, d * d);
  std::vector<linalg::RVec> pa(d + 1, linalg::RVec(d, 0.0));
  std::vector<linalg::RVec> pb(d + 1, linalg::RVec(d, 0.0));
  for (const auto& sc : data) {
    const double tot = static_cast<double>(sc.total());
    if (tot <= 0) continue;
    const auto measured = tomo::setting_bases(mubs, sc.bases);
    for (std::size_t o = 0; o < d * d; ++o) {
      const double p = static_cast<double>(sc.counts[o]) / tot;
      if (p == 0) continue;
      CMat term = tomo::outcome_projector(measured, o);
      term *= cplx(p, 0);
      s += term;
      // Marginals: each side's outcome distribution, averaged over the
      // (d+1) settings of the other side.
      pa[sc.bases[0]][o / d] += p / static_cast<double>(d + 1);
      pb[sc.bases[1]][o % d] += p / static_cast<double>(d + 1);
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

tomo::MleResult mub_maximum_likelihood(const std::vector<tomo::SettingCounts>& data,
                                       std::size_t d, std::size_t num_particles,
                                       const tomo::MleOptions& opts) {
  return tomo::maximum_likelihood(data, mub_bases(d),
                                  mub_linear_inversion(data, d, num_particles), opts);
}

}  // namespace qfc::qudit
