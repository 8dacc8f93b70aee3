#pragma once

/// \file fields.hpp
/// Field tables: the one declaration of a config struct's scalar knobs,
/// and of the members a result struct serialises.
/// Each entry holds the member's name, a pointer to it, its valid interval
/// and a one-line doc with the unit. `validate()` range-checks through
/// check_fields(), the sweep adapters read JSON parameters through
/// read_fields(), and the scenario registry lists the entries with the
/// struct's default member values (field_specs()), so a knob's name,
/// range and default are written once. A struct declares its table next
/// to its members:
///
///     QFC_FIELDS(Config,
///         QFC_FIELD(duration_s, io::kPositive, "integration time [s]"),
///         QFC_FIELD(seed, io::kNonNegative, "experiment RNG seed"))
///
/// Nested structs and thread-count knobs stay out of the tables; checks
/// that involve more than one field stay hand-written in validate().
///
/// Result structs declare the members they serialise in the names-only
/// form, which builds the same entries without interval or doc:
///
///     QFC_JSON(CarResult, coincidences, accidentals, car, car_err)
///
/// and io::to_json() renders any tabled struct, in table order. An entry
/// may name a const member function; its return value is written.

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "qfc/io/json.hpp"

namespace qfc::io {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Valid interval of a field. Only finite values are inside it, never NaN
/// or ±inf; an infinite bound admits every finite value on that side.
struct Interval {
  double lo = -kInf;
  bool lo_open = false;
  double hi = kInf;
  bool hi_open = false;

  constexpr bool contains(double v) const noexcept {
    return v > -kInf && v < kInf && (lo_open ? v > lo : v >= lo) &&
           (hi_open ? v < hi : v <= hi);
  }
  constexpr bool bounded() const noexcept { return lo > -kInf || hi < kInf; }
};

inline constexpr Interval kPositive{0.0, true};          ///< (0, inf)
inline constexpr Interval kNonNegative{0.0};             ///< [0, inf)
inline constexpr Interval kFraction{0.0, false, 1.0};    ///< [0, 1]
inline constexpr Interval kEfficiency{0.0, true, 1.0};   ///< (0, 1]
constexpr Interval at_least(double lo) { return {lo}; }  ///< [lo, inf)
constexpr Interval between(double lo, double hi) { return {lo, false, hi}; }

/// "> 0", ">= 1", "in (0, 1]", or "a finite number" when unbounded.
inline std::string describe(const Interval& r) {
  const auto num = [](double v) { return (std::ostringstream() << v).str(); };
  if (r.lo > -kInf && r.hi < kInf)
    return std::string("in ") + (r.lo_open ? "(" : "[") + num(r.lo) + ", " + num(r.hi) +
           (r.hi_open ? ")" : "]");
  if (r.lo > -kInf) return (r.lo_open ? "> " : ">= ") + num(r.lo);
  if (r.hi < kInf) return (r.hi_open ? "< " : "<= ") + num(r.hi);
  return "a finite number";
}

/// One table entry. `valid` is ignored for bool members; `required` marks
/// an adapter argument without a default.
template <class T, class M>
struct Field {
  const char* name;
  M T::*member;
  Interval valid;
  const char* doc;
  bool required = false;
};

/// `QFC_FIELD(member, interval, doc[, required])`: the entry of
/// `Self::member`, named after the member so the name is written once.
#define QFC_FIELD(m, ...) ::qfc::io::Field{#m, &Self::m, __VA_ARGS__}

/// Declares `static constexpr auto fields()`, the tuple of the QFC_FIELD
/// entries that follow T.
#define QFC_FIELDS(T, ...)          \
  static constexpr auto fields() {  \
    using Self = T;                 \
    return std::tuple{__VA_ARGS__}; \
  }

#define QFC_PARENS ()
#define QFC_EXPAND(...) QFC_EXPAND3(QFC_EXPAND3(QFC_EXPAND3(QFC_EXPAND3(__VA_ARGS__))))
#define QFC_EXPAND3(...) QFC_EXPAND2(QFC_EXPAND2(QFC_EXPAND2(QFC_EXPAND2(__VA_ARGS__))))
#define QFC_EXPAND2(...) QFC_EXPAND1(QFC_EXPAND1(QFC_EXPAND1(QFC_EXPAND1(__VA_ARGS__))))
#define QFC_EXPAND1(...) __VA_ARGS__
/// `QFC_FOR_EACH(f, a, b, c)` → `f(a), f(b), f(c)` (up to 64 arguments).
#define QFC_FOR_EACH(f, ...) __VA_OPT__(QFC_EXPAND(QFC_FOR_EACH_STEP(f, __VA_ARGS__)))
#define QFC_FOR_EACH_STEP(f, a, ...) \
  f(a) __VA_OPT__(, QFC_FOR_EACH_AGAIN QFC_PARENS(f, __VA_ARGS__))
#define QFC_FOR_EACH_AGAIN() QFC_FOR_EACH_STEP

/// `QFC_JSON(T, member...)`: the names-only table of a result struct.
#define QFC_JSON_KEY(m) ::qfc::io::Field{#m, &Self::m, {}, ""}
#define QFC_JSON(T, ...) QFC_FIELDS(T, QFC_FOR_EACH(QFC_JSON_KEY, __VA_ARGS__))

/// Calls `fn(entry)` for every entry of T's table, in order.
template <class T, class Fn>
void for_each_field(Fn&& fn) {
  std::apply([&](const auto&... entry) { (fn(entry), ...); }, T::fields());
}

/// The JSON of a value: a number, bool or string is a leaf, a tabled
/// struct an object of its entries in table order, any other range an
/// array of its elements.
template <class T>
Json to_json(const T& value) {
  if constexpr (std::is_constructible_v<Json, const T&>) {
    return Json(value);
  } else if constexpr (requires { T::fields(); }) {
    Json out = Json::make_object();
    for_each_field<T>([&](const auto& f) {
      if constexpr (std::is_member_function_pointer_v<decltype(f.member)>)
        out.set(f.name, to_json((value.*f.member)()));
      else
        out.set(f.name, to_json(value.*f.member));
    });
    return out;
  } else {
    Json out = Json::make_array();
    for (const auto& x : value) out.push_back(to_json(x));
    return out;
  }
}

/// Throws std::invalid_argument("TypeName.field: must be …") for the first
/// field of `obj` outside its interval (NaN and ±inf always are).
template <class T>
void check_fields(const T& obj, const char* type_name) {
  for_each_field<T>([&](const auto& f) {
    if (!f.valid.contains(static_cast<double>(obj.*f.member)))
      throw std::invalid_argument(std::string(type_name) + "." + f.name + ": must be " +
                                  describe(f.valid));
  });
}

/// Assigns every field whose key is present in `params` (and requires the
/// `required` ones). A type or range error throws JsonError at the key's
/// path ("$.sweeps[3].params.duration_s: must be > 0"). Keys that are not
/// in the table are left for the caller's unknown-key guard.
template <class T>
void read_fields(const JsonView& params, T& obj) {
  for_each_field<T>([&](const auto& f) {
    if (!f.required && !params.has(f.name)) return;
    const JsonView v = params.at(f.name);
    auto& out = obj.*f.member;
    using M = std::remove_reference_t<decltype(out)>;
    if constexpr (std::is_same_v<M, bool>) {
      out = v.as_bool();
    } else if constexpr (std::is_floating_point_v<M>) {
      out = v.as_number();
    } else {
      const std::int64_t x = v.as_int();
      if (std::in_range<M>(x)) out = static_cast<M>(x);
      else v.fail("must be " + describe(f.valid));
    }
    if (!f.valid.contains(static_cast<double>(out))) v.fail("must be " + describe(f.valid));
  });
}

/// A table entry detached from its struct, with the default rendered as
/// JSON: what a parameter listing prints and an unknown-key guard matches.
struct FieldSpec {
  const char* name;
  const char* type;    ///< "bool", "integer" or "number"
  const char* doc;
  Json default_value;  ///< null for a required field
  Interval valid;
};

/// The table of T with the defaults of a value-initialized T.
template <class T>
std::vector<FieldSpec> field_specs() {
  const T defaults{};
  std::vector<FieldSpec> out;
  for_each_field<T>([&](const auto& f) {
    Json value(defaults.*f.member);
    const char* type = value.is_bool() ? "bool" : value.is_int() ? "integer" : "number";
    out.push_back({f.name, type, f.doc, f.required ? Json() : std::move(value), f.valid});
  });
  return out;
}

}  // namespace qfc::io
