// Minimal JSON document parser for the sweep partial-result files.
//
// The repo writes JSON in several places (sweep exports, qlog) but the
// sharded sweep workflow is the first that must *read* it back: the merge
// phase ingests partial-result files produced by other processes. This is a
// small recursive-descent parser over an immutable value tree — enough for
// machine-generated documents (objects, arrays, strings, doubles, bools,
// null), not a general-purpose library (no \uXXXX escapes, no comments).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace quicer::core {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (trailing whitespace allowed, trailing garbage
  /// is an error). Numbers follow JSON's grammar; one that overflows a
  /// double reads as ±inf, one that underflows is an error.
  /// Returns nullopt and fills `error`, naming the failing value's path, on
  /// malformed input.
  static std::optional<JsonValue> Parse(std::string_view text, std::string* error = nullptr);

  // Move-only. Defined out of line, where Body is complete.
  JsonValue();
  JsonValue(JsonValue&& other) noexcept;
  JsonValue& operator=(JsonValue&& other) noexcept;
  ~JsonValue();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors; the fallback is returned on type mismatch, so lookup
  /// chains over optional fields stay branch-free at the call site.
  bool AsBool(bool fallback = false) const { return type_ == Type::kBool ? bool_ : fallback; }
  double AsNumber(double fallback = 0.0) const {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  const std::string& AsString() const;

  /// Array elements (empty for non-arrays).
  const std::vector<JsonValue>& Items() const;
  /// Object members in document order (empty for non-objects).
  const std::vector<std::pair<std::string, JsonValue>>& Members() const;

  /// Object member by key, or nullptr (also for non-objects).
  const JsonValue* Get(std::string_view key) const;

  /// Convenience typed member lookups.
  double GetNumber(std::string_view key, double fallback = 0.0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;
  const std::string& GetString(std::string_view key) const;

 private:
  friend class JsonParser;

  /// The string, items or members of a string, array or object value.
  /// Kept behind one pointer, so a number or literal (most elements of a
  /// partial document's arrays) is three words and no heap block.
  struct Body;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::unique_ptr<Body> body_;
};

/// Writer-side helpers shared by the JSON-emitting modules (sweep exports,
/// sweep partials).
std::string JsonEscape(const std::string& s);
/// Appends the shortest of %.15g, %.16g and %.17g that round-trips the
/// double exactly — exact parse-back is the property the sharded sweep
/// workflow relies on for byte-identical merged exports, and the short form
/// keeps scenario files hand-editable. NaN renders as null and ±inf as
/// ±1e999, which the parser reads back as ±inf. A normal double costs one
/// shortest to_chars call (two or three when its shortest form has 16
/// digits), not a formatting and parse-back per tried precision.
void AppendJsonNumber(std::string& out, double v);
/// AppendJsonNumber into a fresh string.
std::string JsonNumber(double v);
/// Appends "[1, 2, 3]" — the id/bin-array shape shared by the sweep partial
/// and work-unit documents.
void AppendJsonSizeArray(std::string& out, const std::vector<std::size_t>& values);

}  // namespace quicer::core
