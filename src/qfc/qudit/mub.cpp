#include "qfc/qudit/mub.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

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

}  // namespace qfc::qudit
