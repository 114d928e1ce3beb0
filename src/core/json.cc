#include "core/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <system_error>

namespace quicer::core {
namespace {

const std::string kEmptyString;
const std::vector<JsonValue> kEmptyItems;
const std::vector<std::pair<std::string, JsonValue>> kEmptyMembers;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

const std::string& JsonValue::AsString() const {
  return type_ == Type::kString ? string_ : kEmptyString;
}

const std::vector<JsonValue>& JsonValue::Items() const {
  return type_ == Type::kArray ? items_ : kEmptyItems;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::Members() const {
  return type_ == Type::kObject ? members_ : kEmptyMembers;
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* value = Get(key);
  return value == nullptr ? fallback : value->AsNumber(fallback);
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* value = Get(key);
  return value == nullptr ? fallback : value->AsBool(fallback);
}

const std::string& JsonValue::GetString(std::string_view key) const {
  const JsonValue* value = Get(key);
  return value == nullptr ? kEmptyString : value->AsString();
}

/// Recursive-descent parser over the document text. Depth is bounded to
/// keep adversarial inputs from exhausting the stack. A failure names the
/// value it happened in ("$.points[3].trace[17]"): each container prepends
/// its segment while the recursion unwinds, so a successful parse never
/// builds a path.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    JsonValue value;
    if (!ParseValue(value, 0)) {
      if (error != nullptr) {
        *error = error_ + " at $" + path_ + " (offset " + std::to_string(pos_) + ")";
      }
      return std::nullopt;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters after document (offset " + std::to_string(pos_) + ")";
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  /// Prepends one path segment of the value that failed to parse.
  bool Unwind(const std::string& segment) {
    path_.insert(0, segment);
    return false;
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escaped = text_[pos_++];
      switch (escaped) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        default: return Fail("unsupported escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return Fail("document too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of document");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out.type_ = JsonValue::Type::kString;
        return ParseString(out.string_);
      case 't':
        out.type_ = JsonValue::Type::kBool;
        out.bool_ = true;
        return ConsumeLiteral("true");
      case 'f':
        out.type_ = JsonValue::Type::kBool;
        out.bool_ = false;
        return ConsumeLiteral("false");
      case 'n':
        out.type_ = JsonValue::Type::kNull;
        return ConsumeLiteral("null");
      default: return ParseNumber(out);
    }
  }

  bool ParseNumber(JsonValue& out) {
    // JSON's grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, is
    // scanned first: from_chars alone also takes inf, nan, leading zeros
    // and "1.". The scanned span ends inside text_, so a view that is not
    // NUL-terminated is never read past its end.
    const char first = text_[pos_];
    if (first != '-' && !IsDigit(first)) return Fail("unexpected character");
    std::size_t end = pos_ + (first == '-' ? 1 : 0);
    const auto at = [&](std::string_view chars) {
      return end < text_.size() && chars.find(text_[end]) != std::string_view::npos;
    };
    const auto digits = [&] {
      const std::size_t start = end;
      while (end < text_.size() && IsDigit(text_[end])) ++end;
      return end > start;
    };
    if (at("0")) {
      ++end;
    } else if (!digits()) {
      return Fail("malformed number");
    }
    if (at(".")) {
      ++end;
      if (!digits()) return Fail("malformed number");
    }
    if (at("eE")) {
      ++end;
      if (at("+-")) ++end;
      if (!digits()) return Fail("malformed number");
    }
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) || text_[end] == '.')) {
      return Fail("malformed number");  // 0x10, 01, 1.5.3
    }
    const char* begin = text_.data() + pos_;
    const char* last = text_.data() + end;
    if (std::from_chars(begin, last, out.number_).ec != std::errc()) {
      return Fail("number out of range: " + std::string(begin, last));
    }
    out.type_ = JsonValue::Type::kNumber;
    pos_ = end;
    return true;
  }

  bool ParseArray(JsonValue& out, int depth) {
    if (!Consume('[')) return false;
    out.type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!ParseValue(item, depth + 1)) {
        return Unwind("[" + std::to_string(out.items_.size()) + "]");
      }
      out.items_.push_back(std::move(item));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(JsonValue& out, int depth) {
    if (!Consume('{')) return false;
    out.type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(value, depth + 1)) return Unwind("." + key);
      out.members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  std::string path_;
};

std::optional<JsonValue> JsonValue::Parse(std::string_view text, std::string* error) {
  return JsonParser(text).Parse(error);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

void AppendJsonNumber(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "null";
    return;
  }
  // Shortest representation that still round-trips exactly: scenario files
  // are hand-edited, so "2.8" beats "2.7999999999999998" — but byte-exact
  // parse-back is what the sharded/merged byte-identity rests on, so wider
  // precision is used whenever the short form is lossy. to_chars(general,
  // p) is defined as printf's %.*g in the C locale, so these are the bytes
  // snprintf("%.*g") writes, without its locale and multi-precision paths.
  char buffer[32];
  char* end = buffer;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buffer, buffer + sizeof(buffer), v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    if (std::from_chars(buffer, end, back).ec == std::errc() && back == v) break;
  }
  out.append(buffer, end);
}

std::string JsonNumber(double v) {
  std::string out;
  AppendJsonNumber(out, v);
  return out;
}

void AppendJsonSizeArray(std::string& out, const std::vector<std::size_t>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(values[i]);
  }
  out += ']';
}

}  // namespace quicer::core
