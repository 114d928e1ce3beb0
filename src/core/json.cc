#include "core/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <system_error>

namespace quicer::core {
namespace {

const std::string kEmptyString;
const std::vector<JsonValue> kEmptyItems;
const std::vector<std::pair<std::string, JsonValue>> kEmptyMembers;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

struct JsonValue::Body {
  std::string string;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;
};

JsonValue::JsonValue() = default;
JsonValue::JsonValue(JsonValue&& other) noexcept = default;
JsonValue& JsonValue::operator=(JsonValue&& other) noexcept = default;
JsonValue::~JsonValue() = default;

const std::string& JsonValue::AsString() const {
  return type_ == Type::kString && body_ ? body_->string : kEmptyString;
}

const std::vector<JsonValue>& JsonValue::Items() const {
  return type_ == Type::kArray && body_ ? body_->items : kEmptyItems;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::Members() const {
  return type_ == Type::kObject && body_ ? body_->members : kEmptyMembers;
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [name, value] : Members()) {
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
    bool ok = ParseValue(value, 0);
    if (ok) {
      SkipWhitespace();
      if (pos_ != text_.size()) ok = Fail("trailing characters after document");
    }
    if (!ok) {
      if (error != nullptr) {
        *error = error_ + " at $" + path_ + " (offset " + std::to_string(pos_) + ")";
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  /// RFC 8259's four whitespace characters; std::isspace would also take
  /// \v and \f.
  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\n' && c != '\t' && c != '\r') return;
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
        out.body_ = std::make_unique<JsonValue::Body>();
        return ParseString(out.body_->string);
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
    const bool negative = first == '-';
    std::size_t end = pos_ + (negative ? 1 : 0);
    const std::size_t int_begin = end;
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
    const std::size_t int_end = end;
    if (at(".")) {
      ++end;
      if (!digits()) return Fail("malformed number");
    }
    std::size_t exponent_begin = end;  // sign or first digit; == end: none
    if (at("eE")) {
      exponent_begin = ++end;
      if (at("+-")) ++end;
      if (!digits()) return Fail("malformed number");
    }
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) || text_[end] == '.')) {
      return Fail("malformed number");  // 0x10, 01, 1.5.3
    }
    out.type_ = JsonValue::Type::kNumber;
    // An integer of at most 15 digits is below 2^53, so accumulating it is
    // exact; negating a zero gives -0, as from_chars does.
    if (end == int_end && int_end - int_begin <= 15) {
      std::uint64_t magnitude = 0;
      for (std::size_t i = int_begin; i < int_end; ++i) {
        magnitude = magnitude * 10 + static_cast<std::uint64_t>(text_[i] - '0');
      }
      out.number_ = static_cast<double>(magnitude);
      if (negative) out.number_ = -out.number_;
      pos_ = end;
      return true;
    }
    const char* begin = text_.data() + pos_;
    const char* last = text_.data() + end;
    const std::errc ec = std::from_chars(begin, last, out.number_).ec;
    if (ec == std::errc::result_out_of_range &&
        Overflows(int_begin, int_end, exponent_begin, end)) {
      // The writer spells ±inf as ±1e999; any overflow reads back as ±inf.
      out.number_ = negative ? -std::numeric_limits<double>::infinity()
                             : std::numeric_limits<double>::infinity();
    } else if (ec != std::errc()) {
      return Fail("number out of range: " + std::string(begin, last));
    }
    pos_ = end;
    return true;
  }

  // from_chars reports overflow and underflow alike. A number overflowed
  // when it is at least 1: its leading digit's decimal order plus its
  // exponent is positive.
  bool Overflows(std::size_t int_begin, std::size_t int_end, std::size_t exponent_begin,
                 std::size_t end) const {
    std::int64_t order = static_cast<std::int64_t>(int_end - int_begin);
    if (text_[int_begin] == '0') {  // 0.00d: minus the zeros after the point
      order = 0;
      for (std::size_t i = int_end + 1; i < end && text_[i] == '0'; ++i) --order;
    }
    std::int64_t exponent = 0;
    if (exponent_begin < end) {
      const bool minus = text_[exponent_begin] == '-';
      std::size_t i = exponent_begin + (IsDigit(text_[exponent_begin]) ? 0 : 1);
      for (; i < end && exponent < 1'000'000'000'000; ++i) {
        exponent = exponent * 10 + (text_[i] - '0');
      }
      if (minus) exponent = -exponent;
    }
    return order + exponent > 0;
  }

  bool ParseArray(JsonValue& out, int depth) {
    if (!Consume('[')) return false;
    out.type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    out.body_ = std::make_unique<JsonValue::Body>();
    std::vector<JsonValue>& items = out.body_->items;
    while (true) {
      JsonValue& item = items.emplace_back();
      if (!ParseValue(item, depth + 1)) {
        return Unwind("[" + std::to_string(items.size() - 1) + "]");
      }
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
    out.body_ = std::make_unique<JsonValue::Body>();
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(value, depth + 1)) return Unwind("." + key);
      out.body_->members.emplace_back(std::move(key), std::move(value));
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

namespace {

/// A finite double's decimal digits as std::to_chars(scientific) writes
/// them: digits[0].digits[1..count) × 10^exponent, trailing zeros dropped.
struct Decimal {
  bool negative = false;
  int count = 0;
  int exponent = 0;
  char digits[24] = {};

  bool operator==(const Decimal& other) const {
    return negative == other.negative && count == other.count && exponent == other.exponent &&
           std::equal(digits, digits + count, other.digits);
  }
};

/// to_chars(v, scientific) read back into a Decimal: the shortest digits
/// that round-trip when `precision` is negative, else v rounded to
/// precision + 1 significant digits.
Decimal ScientificDigits(double v, int precision) {
  char buffer[40];
  char* const last = buffer + sizeof(buffer);
  const char* const end =
      precision < 0
          ? std::to_chars(buffer, last, v, std::chars_format::scientific).ptr
          : std::to_chars(buffer, last, v, std::chars_format::scientific, precision).ptr;
  Decimal d;
  const char* p = buffer;
  if (*p == '-') {
    d.negative = true;
    ++p;
  }
  for (; *p != 'e'; ++p) {
    if (*p != '.') d.digits[d.count++] = *p;
  }
  const bool negative_exponent = p[1] == '-';
  for (p += 2; p < end; ++p) d.exponent = d.exponent * 10 + (*p - '0');
  if (negative_exponent) d.exponent = -d.exponent;
  while (d.count > 1 && d.digits[d.count - 1] == '0') --d.count;
  return d;
}

/// Appends `d` the way printf's %.*g writes it at `precision`, given that
/// rounding v to `precision` digits yields exactly d: fixed notation for
/// exponents in [-4, precision), else d.ddde±XX, trailing zeros dropped.
void AppendGeneral(std::string& out, const Decimal& d, int precision) {
  char buffer[40];
  char* p = buffer;
  if (d.negative) *p++ = '-';
  const int x = d.exponent;
  if (x >= -4 && x < precision) {
    if (x < 0) {
      *p++ = '0';
      *p++ = '.';
      p = std::fill_n(p, -x - 1, '0');
      p = std::copy(d.digits, d.digits + d.count, p);
    } else {
      const int whole = x + 1;
      const int shown = std::min(whole, d.count);
      p = std::copy(d.digits, d.digits + shown, p);
      p = std::fill_n(p, whole - shown, '0');
      if (d.count > whole) {
        *p++ = '.';
        p = std::copy(d.digits + whole, d.digits + d.count, p);
      }
    }
  } else {
    *p++ = d.digits[0];
    if (d.count > 1) {
      *p++ = '.';
      p = std::copy(d.digits + 1, d.digits + d.count, p);
    }
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    const int magnitude = x < 0 ? -x : x;
    if (magnitude < 10) *p++ = '0';
    p = std::to_chars(p, buffer + sizeof(buffer), magnitude).ptr;
  }
  out.append(buffer, p);
}

/// The rule itself: the first of %.15g, %.16g, %.17g that reads back to v.
/// to_chars(general, p) is defined as printf's %.*g in the C locale, so
/// these are the bytes snprintf("%.*g") writes, without its locale and
/// multi-precision paths.
void AppendFirstRoundTrip(std::string& out, double v) {
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

}  // namespace

void AppendJsonNumber(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "null";
    return;
  }
  // JSON has no infinity; 1e999 is a valid number that overflows back to it.
  if (std::isinf(v)) {
    out += v > 0 ? "1e999" : "-1e999";
    return;
  }
  // Shortest representation that still round-trips exactly: scenario files
  // are hand-edited, so "2.8" beats "2.7999999999999998" — but byte-exact
  // parse-back is what the sharded/merged byte-identity rests on, so wider
  // precision is used whenever the short form is lossy.
  //
  // An integer below 1e15 has at most 15 digits, all of which %.15g writes.
  if (v > -1e15 && v < 1e15) {
    const auto whole = static_cast<std::int64_t>(v);
    if (static_cast<double>(whole) == v) {
      if (whole == 0 && std::signbit(v)) {
        out += "-0";
        return;
      }
      char buffer[24];
      out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), whole).ptr);
      return;
    }
  }
  // Subnormals have fewer significant bits, so the argument below does not
  // hold for them.
  if (!std::isnormal(v)) {
    AppendFirstRoundTrip(out, v);
    return;
  }
  // For a normal double, 15-digit decimals near v lie more than four ulps
  // apart, and the shortest digits S that round-trip lie within half an ulp
  // of v; among candidates of equal length to_chars takes the closest. So:
  // - S of at most 15 digits is v rounded to 15 digits: %.15g.
  // - S of 17 digits is v rounded to 17 digits, and no 15- or 16-digit
  //   form round-trips: %.17g.
  // - With 16, %.15g is lossy, and %.16g round-trips exactly when v
  //   rounded to 16 digits is S (next to a power of two, where the ulp
  //   below v is half the ulp above, the rounding can fall outside).
  const Decimal shortest = ScientificDigits(v, -1);
  if (shortest.count <= 15) {
    AppendGeneral(out, shortest, 15);
  } else if (shortest.count == 17) {
    AppendGeneral(out, shortest, 17);
  } else if (ScientificDigits(v, 15) == shortest) {
    AppendGeneral(out, shortest, 16);
  } else {
    AppendGeneral(out, ScientificDigits(v, 16), 17);
  }
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
