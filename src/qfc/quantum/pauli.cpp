#include "qfc/quantum/pauli.hpp"

#include <cmath>
#include <stdexcept>

namespace qfc::quantum {

using linalg::cplx;

const CMat& pauli_i() {
  static const CMat m{{cplx(1, 0), cplx(0, 0)}, {cplx(0, 0), cplx(1, 0)}};
  return m;
}
const CMat& pauli_x() {
  static const CMat m{{cplx(0, 0), cplx(1, 0)}, {cplx(1, 0), cplx(0, 0)}};
  return m;
}
const CMat& pauli_y() {
  static const CMat m{{cplx(0, 0), cplx(0, -1)}, {cplx(0, 1), cplx(0, 0)}};
  return m;
}
const CMat& pauli_z() {
  static const CMat m{{cplx(1, 0), cplx(0, 0)}, {cplx(0, 0), cplx(-1, 0)}};
  return m;
}
const CMat& hadamard() {
  static const double s = 1.0 / std::sqrt(2.0);
  static const CMat m{{cplx(s, 0), cplx(s, 0)}, {cplx(s, 0), cplx(-s, 0)}};
  return m;
}

const CMat& pauli(char label) {
  switch (label) {
    case 'I': return pauli_i();
    case 'X': return pauli_x();
    case 'Y': return pauli_y();
    case 'Z': return pauli_z();
    default: throw std::invalid_argument("pauli: label must be one of I,X,Y,Z");
  }
}

CMat pauli_string(const std::string& labels) {
  if (labels.empty()) throw std::invalid_argument("pauli_string: empty label string");
  CMat m = pauli(labels[0]);
  for (std::size_t i = 1; i < labels.size(); ++i) m = linalg::kron(m, pauli(labels[i]));
  return m;
}

CMat projector(const CVec& v) { return linalg::outer(v, v); }

CVec xy_eigenstate(double phi, int sign) {
  if (sign != 1 && sign != -1) throw std::invalid_argument("xy_eigenstate: sign must be ±1");
  const double s = 1.0 / std::sqrt(2.0);
  return CVec{cplx(s, 0), static_cast<double>(sign) * s * std::exp(cplx(0, phi))};
}

CMat xy_basis(double phi) {
  const CVec plus = xy_eigenstate(phi, +1), minus = xy_eigenstate(phi, -1);
  return CMat{{plus[0], minus[0]}, {plus[1], minus[1]}};
}

}  // namespace qfc::quantum
