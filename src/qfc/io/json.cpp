#include "qfc/io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace qfc::io {

Json::Json(unsigned long long v) {
  if (v > static_cast<unsigned long long>(std::numeric_limits<std::int64_t>::max()))
    throw JsonError("Json: unsigned value " + std::to_string(v) +
                    " exceeds the int64 range JSON integers round-trip through");
  type_ = Type::Int;
  int_ = static_cast<std::int64_t>(v);
}

Json Json::make_array(Array elements) {
  Json j = make_array();
  j.array_ = std::move(elements);
  return j;
}

Json Json::make_object(Object members) {
  Json j = make_object();
  j.object_ = std::move(members);
  return j;
}

void Json::push_back(Json v) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) throw JsonError("Json::push_back on a non-array value");
  array_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) throw JsonError("Json::set on a non-object value");
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::Object) return nullptr;
  for (const auto& member : object_)
    if (member.first == key) return &member.second;
  return nullptr;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::Null: return true;
    case Json::Type::Bool: return a.bool_ == b.bool_;
    case Json::Type::Int: return a.int_ == b.int_;
    case Json::Type::Double:
      // Bit-level comparison (NaN == NaN, -0.0 != 0.0): dump() emits
      // distinct bytes exactly when the bits differ.
      return a.double_ == b.double_ ||
             (std::isnan(a.double_) && std::isnan(b.double_));
    case Json::Type::String: return a.string_ == b.string_;
    case Json::Type::Array: return a.array_ == b.array_;
    case Json::Type::Object: return a.object_ == b.object_;
  }
  return false;
}

// --------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after the JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    // Recompute line/column from the byte offset only on the error path.
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; column = 1; } else { ++column; }
    }
    throw JsonError("JSON parse error at line " + std::to_string(line) +
                    ", column " + std::to_string(column) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char expected, const char* what) {
    if (!consume(expected)) fail(std::string("expected ") + what);
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal)
      fail("invalid literal (expected '" + std::string(literal) + "')");
    pos_ += literal.size();
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_literal("true"); return Json(true);
      case 'f': expect_literal("false"); return Json(false);
      case 'n': expect_literal("null"); return Json(nullptr);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Json parse_object() {
    expect('{', "'{'");
    Json object = Json::make_object();
    skip_whitespace();
    if (consume('}')) return object;
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected a string object key");
      std::string key = parse_string();
      if (object.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      skip_whitespace();
      expect(':', "':' after object key");
      object.set(std::move(key), parse_value());
      skip_whitespace();
      if (consume(',')) continue;
      expect('}', "',' or '}' in object");
      return object;
    }
  }

  Json parse_array() {
    expect('[', "'['");
    Json array = Json::make_array();
    skip_whitespace();
    if (consume(']')) return array;
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      if (consume(',')) continue;
      expect(']', "',' or ']' in array");
      return array;
    }
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape sequence");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: a low surrogate must follow.
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
        fail("high surrogate not followed by \\u low surrogate");
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (consume('0')) {
      // leading zeros are invalid: "01" must not parse
    } else {
      if (pos_ >= text_.size() || text_[pos_] < '1' || text_[pos_] > '9')
        fail("invalid number");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    bool integral = true;
    if (consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("digit expected after decimal point");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("digit expected in exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) return Json(value);
      // Integer literal outside int64: fall through to double semantics.
    }
    double value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("invalid number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

// --------------------------------------------------------------- writer

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double v) {
  // JSON has no NaN/Inf literal: a non-finite value is written as a string.
  if (std::isnan(v)) { out += "\"nan\""; return; }
  if (std::isinf(v)) { out += v > 0 ? "\"inf\"" : "\"-inf\""; return; }
  char buf[32];
  // Shortest round-trip form: deterministic bytes for identical bits, and
  // parse(dump(v)) reproduces v exactly.
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
  // Keep doubles visibly doubles so a re-parse lands back in Type::Double
  // (to_chars prints 4.0 as "4"): an integer-looking double gains ".0".
  std::string_view written(buf, static_cast<std::size_t>(result.ptr - buf));
  if (written.find('.') == std::string_view::npos &&
      written.find('e') == std::string_view::npos)
    out += ".0";
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_indent = [&](int levels) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(levels), ' ');
  };
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Int: out += std::to_string(int_); return;
    case Type::Double: append_double(out, double_); return;
    case Type::String: append_escaped(out, string_); return;
    case Type::Array: {
      if (array_.empty()) { out += "[]"; return; }
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (pretty) newline_indent(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_indent(depth);
      out.push_back(']');
      return;
    }
    case Type::Object: {
      if (object_.empty()) { out += "{}"; return; }
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (pretty) newline_indent(depth + 1);
        append_escaped(out, object_[i].first);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_indent(depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ------------------------------------------------------------- JsonView

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "boolean";
    case Json::Type::Int: return "integer";
    case Json::Type::Double: return "number";
    case Json::Type::String: return "string";
    case Json::Type::Array: return "array";
    case Json::Type::Object: return "object";
  }
  return "?";
}

}  // namespace

void JsonView::fail(const std::string& message) const {
  throw JsonError(path_ + ": " + message);
}

bool JsonView::as_bool() const {
  if (!value_->is_bool())
    fail(std::string("expected boolean, got ") + type_name(value_->type()));
  return value_->bool_value();
}

double JsonView::as_number() const {
  if (!value_->is_number())
    fail(std::string("expected number, got ") + type_name(value_->type()));
  return value_->number_value();
}

std::int64_t JsonView::as_int() const {
  if (!value_->is_int())
    fail(std::string("expected integer, got ") + type_name(value_->type()));
  return value_->int_value();
}

std::int64_t JsonView::as_int_in(std::int64_t lo, std::int64_t hi) const {
  const std::int64_t v = as_int();
  if (v < lo || v > hi)
    fail("expected integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "], got " + std::to_string(v));
  return v;
}

const std::string& JsonView::as_string() const {
  if (!value_->is_string())
    fail(std::string("expected string, got ") + type_name(value_->type()));
  return value_->string_value();
}

std::size_t JsonView::array_size() const {
  if (!value_->is_array())
    fail(std::string("expected array, got ") + type_name(value_->type()));
  return value_->array_items().size();
}

JsonView JsonView::at(std::size_t index) const {
  if (!value_->is_array())
    fail(std::string("expected array, got ") + type_name(value_->type()));
  const auto& items = value_->array_items();
  if (index >= items.size())
    fail("index " + std::to_string(index) + " out of range (size " +
         std::to_string(items.size()) + ")");
  return JsonView(items[index], path_ + "[" + std::to_string(index) + "]");
}

bool JsonView::has(std::string_view key) const {
  return value_->find(key) != nullptr;
}

JsonView JsonView::at(std::string_view key) const {
  if (!value_->is_object())
    fail(std::string("expected object, got ") + type_name(value_->type()));
  const Json* member = value_->find(key);
  if (member == nullptr) fail("missing required key '" + std::string(key) + "'");
  return JsonView(*member, path_ + "." + std::string(key));
}

const Json* JsonView::find(std::string_view key) const {
  if (!value_->is_object())
    fail(std::string("expected object, got ") + type_name(value_->type()));
  return value_->find(key);
}

void JsonView::require_keys_among(const std::vector<std::string_view>& allowed) const {
  if (!value_->is_object())
    fail(std::string("expected object, got ") + type_name(value_->type()));
  for (const auto& member : value_->object_members()) {
    bool known = false;
    for (const auto& key : allowed)
      if (member.first == key) { known = true; break; }
    if (!known) {
      std::string expected;
      for (const auto& key : allowed) {
        if (!expected.empty()) expected += ", ";
        expected += key;
      }
      fail("unknown key '" + member.first + "' (expected one of: " + expected + ")");
    }
  }
}

}  // namespace qfc::io
