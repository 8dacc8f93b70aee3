#pragma once

/// \file json.hpp
/// Dependency-free JSON for the config/serialization layer: a value type
/// (`Json`), a strict parser with line/column errors, a deterministic
/// writer, and a path-carrying accessor (`JsonView`) that turns config
/// reading mistakes into errors naming the exact JSON path
/// ("$.sweeps[1].axes[0].param: expected string, got number").
///
/// Determinism contract (the sweep runner's merged-report guarantee rides
/// on it): objects preserve insertion order, numbers print via
/// std::to_chars shortest round-trip form, and dump() emits no timestamps
/// or addresses — the same Json value always serializes to the same bytes,
/// and parse(dump(v)) == v exactly (integers stay integers, finite doubles
/// stay bit-identical).
///
/// Non-finite policy: JSON has no NaN/Inf literal, so the writer emits a
/// non-finite double as the string "nan", "inf" or "-inf" (a run with no
/// coincidences reports e.g. a NaN CAR without aborting the report).
/// Re-parsing the output reads these values back as strings, not numbers.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qfc::io {

/// Parse or access error. `path` is "$"-rooted for accessor errors and
/// "line L, column C" style for parse errors; what() carries everything.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& message) : std::runtime_error(message) {}
};

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  using Array = std::vector<Json>;
  /// Objects are insertion-ordered member lists (never re-sorted), so a
  /// config round-trips in author order and reports serialize in the
  /// order the code built them. Lookup is linear — fine for the small
  /// objects configs and reports are made of.
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() noexcept : type_(Type::Null) {}
  Json(std::nullptr_t) noexcept : type_(Type::Null) {}
  Json(bool b) noexcept : type_(Type::Bool), bool_(b) {}
  Json(int v) noexcept : type_(Type::Int), int_(v) {}
  Json(long v) noexcept : type_(Type::Int), int_(v) {}
  Json(long long v) noexcept : type_(Type::Int), int_(v) {}
  Json(unsigned v) noexcept : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long v) : Json(static_cast<unsigned long long>(v)) {}
  /// Throws JsonError above INT64_MAX (JSON has no unsigned channel that
  /// round-trips through the Int representation).
  Json(unsigned long long v);
  Json(double v) noexcept : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), string_(s) {}

  static Json make_array() { Json j; j.type_ = Type::Array; return j; }
  static Json make_object() { Json j; j.type_ = Type::Object; return j; }
  /// Convenience: Json::make_array({Json(1), Json(2)}).
  static Json make_array(Array elements);
  /// Convenience: Json::make_object({{"a", 1}, {"b", true}}); keys must be
  /// distinct.
  static Json make_object(Object members);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::Null; }
  bool is_bool() const noexcept { return type_ == Type::Bool; }
  /// Int and Double are both "number" to readers; the split exists so
  /// integer literals (seeds, counts) round-trip without a float detour.
  bool is_number() const noexcept { return type_ == Type::Int || type_ == Type::Double; }
  bool is_int() const noexcept { return type_ == Type::Int; }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_array() const noexcept { return type_ == Type::Array; }
  bool is_object() const noexcept { return type_ == Type::Object; }

  // ---- unchecked readers (call only after the matching is_*() check;
  //      JsonView is the checked, path-reporting way in).
  bool bool_value() const noexcept { return bool_; }
  std::int64_t int_value() const noexcept { return int_; }
  double number_value() const noexcept {
    return type_ == Type::Int ? static_cast<double>(int_) : double_;
  }
  const std::string& string_value() const noexcept { return string_; }
  const Array& array_items() const noexcept { return array_; }
  const Object& object_members() const noexcept { return object_; }

  // ---- builders
  /// Appends to an array (null coerces to an empty array first).
  void push_back(Json v);
  /// Sets object member `key` (null coerces to an empty object first);
  /// replaces in place if the key exists, appends otherwise.
  void set(std::string key, Json v);
  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const noexcept;

  /// Deep structural equality. Int(3) != Double(3.0) — the writer would
  /// emit different bytes for them, and byte equality is the contract the
  /// sweep gate checks, so value equality matches it.
  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

  /// Strict RFC 8259 parse (UTF-8 passthrough for strings). Throws
  /// JsonError with "line L, column C" context on malformed input,
  /// including trailing garbage after the top-level value.
  static Json parse(std::string_view text);

  /// Serialize. indent < 0: compact one-line form; indent >= 0: pretty
  /// form with that many spaces per level. Numbers use std::to_chars
  /// shortest round-trip formatting; non-finite doubles are written as the
  /// strings "nan", "inf" and "-inf" (see the file comment).
  std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Checked, path-carrying accessor over a parsed Json tree. A JsonView is
/// a (value, "$.path") pair; every typed getter throws JsonError naming
/// that path on a type mismatch, and child views extend the path, so a
/// config error deep in a sweep file reads
/// "$.sweeps[2].axes[0].linspace.count: expected integer, got string".
class JsonView {
 public:
  JsonView(const Json& value, std::string path = "$")
      : value_(&value), path_(std::move(path)) {}

  const Json& value() const noexcept { return *value_; }
  const std::string& path() const noexcept { return path_; }

  // ---- typed leaf getters
  bool as_bool() const;
  /// Any number (Int or Double), as double.
  double as_number() const;
  /// Int only; a Double (even 3.0) is a type error — integer knobs like
  /// seeds and counts must be written as integers.
  std::int64_t as_int() const;
  /// as_int() plus a [lo, hi] range check ("expected integer in [1, 64]").
  std::int64_t as_int_in(std::int64_t lo, std::int64_t hi) const;
  const std::string& as_string() const;

  // ---- containers
  bool is_array() const noexcept { return value_->is_array(); }
  bool is_object() const noexcept { return value_->is_object(); }
  /// Throws unless this value is an array / object.
  std::size_t array_size() const;
  JsonView at(std::size_t index) const;          ///< array element, path += [i]
  bool has(std::string_view key) const;          ///< object member present?
  JsonView at(std::string_view key) const;       ///< required member, path += .key

  /// Unknown-key guard: throws "$.path: unknown key 'foo' (expected one
  /// of: a, b, c)" if the object holds any member not in `allowed`.
  /// The error is the single most common config typo, so every config
  /// reader in qfc::sweep calls this before touching members.
  void require_keys_among(const std::vector<std::string_view>& allowed) const;

  [[noreturn]] void fail(const std::string& message) const;

 private:
  const Json* value_;
  std::string path_;
};

}  // namespace qfc::io
