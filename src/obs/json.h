// Minimal JSON emitter + recursive-descent parser.
//
// The emitter handles comma placement, string escaping, and non-finite
// number clamping; callers drive nesting with begin/end pairs (checked via
// DESMINE_ENSURES). The parser (parse_json) is the one JSON reader of the
// project — config files, the serve protocol and checkpoint journals all go
// through it. It covers objects, arrays, strings with standard escapes
// (incl. \uXXXX for the BMP), numbers, booleans, and null, nested at most
// kMaxJsonDepth deep. Errors throw util::RuntimeError naming the byte
// offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace desmine::obs {

/// A parsed JSON document node. Object members keep insertion order so
/// error messages and re-emission stay deterministic.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// kString: the unescaped value. kNumber: the token as written in the
  /// source (e.g. "12.50"), so callers that treat numbers as text see it
  /// unchanged.
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_object() const { return type == Type::kObject; }
};

/// Deepest nesting of objects and arrays parse_json accepts. The deepest
/// config document is 3 levels; the bound keeps a hostile input from
/// exhausting the stack.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws util::RuntimeError with the byte offset of
/// the first offending character, including the first container opened
/// past kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

/// The members of a one-level object as text: strings unescaped, numbers
/// as their source token, booleans and null as their literal. A repeated
/// key keeps its last value. Throws util::RuntimeError when `v` is not an
/// object or a member value is an object or an array.
std::map<std::string, std::string> flat_members(const JsonValue& v);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be followed by a value or begin_*.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// The document built so far. Valid once every begin_* is closed.
  const std::string& str() const { return out_; }

  /// Escape `s` as a JSON string literal (including the quotes).
  static std::string quote(std::string_view s);

 private:
  void comma();

  std::string out_;
  std::vector<bool> container_has_items_;
  bool pending_key_ = false;
};

}  // namespace desmine::obs
