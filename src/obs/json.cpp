#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace desmine::obs {

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows "key": — no comma
  }
  if (!container_has_items_.empty()) {
    if (container_has_items_.back()) out_ += ',';
    container_has_items_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  container_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  DESMINE_ENSURES(!container_has_items_.empty(), "unbalanced end_object");
  container_has_items_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  container_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  DESMINE_ENSURES(!container_has_items_.empty(), "unbalanced end_array");
  container_has_items_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  out_ += quote(k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_ += quote(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();  // JSON has no inf/nan
  comma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

std::string JsonWriter::quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw RuntimeError("json parse error at offset " + std::to_string(pos_) +
                       ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Past kMaxJsonDepth the document is rejected before the recursion
        // can exhaust the stack.
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    v.boolean = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape digit");
          }
          // UTF-8 encode (BMP only; surrogate pairs are rejected — the
          // configs and protocol this parser serves are ASCII in practice).
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape");
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid value");
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.string.assign(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(v.string.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

std::map<std::string, std::string> flat_members(const JsonValue& v) {
  if (!v.is_object()) throw RuntimeError("expected a JSON object");
  std::map<std::string, std::string> out;
  for (const auto& [key, member] : v.object) {
    switch (member.type) {
      case JsonValue::Type::kString:
      case JsonValue::Type::kNumber: out[key] = member.string; break;
      case JsonValue::Type::kBool:
        out[key] = member.boolean ? "true" : "false";
        break;
      case JsonValue::Type::kNull: out[key] = "null"; break;
      default:
        throw RuntimeError("member '" + key + "' is not a scalar");
    }
  }
  return out;
}

}  // namespace desmine::obs
