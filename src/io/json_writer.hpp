// Minimal streaming JSON writer (no third-party dependencies).
//
// Produces RFC 8259 JSON: strings are escaped (quotes, backslash, control
// characters as \u00XX; UTF-8 payload bytes pass through untouched) and
// doubles are rendered with the shortest representation that round-trips
// exactly (std::to_chars). Non-finite doubles have no JSON spelling and
// are written as null.
//
//   JsonWriter w(os, 2);
//   w.beginObject();
//   w.key("items").value(std::int64_t{2000});
//   w.key("ratios").beginArray().value(1.25).value(0.1).endArray();
//   w.endObject();
//
// Structural misuse (a value where a key is required, unbalanced end...)
// throws std::logic_error — writer bugs must not produce silently invalid
// reports.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cdbp {

/// Escapes `s` for embedding in a JSON string literal (without the
/// surrounding quotes).
std::string jsonEscape(std::string_view s);

/// Shortest decimal form of `v` that parses back to exactly `v`
/// ("null" for NaN/Inf). Integral values keep a trailing ".0" marker so
/// the JSON type of the field is stable across runs.
std::string jsonDouble(double v);

/// Appends jsonDouble(v) to `out` without a temporary string.
void appendJsonDouble(std::string& out, double v);

class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 renders compact single-line JSON.
  explicit JsonWriter(std::ostream& os, int indent = 2);

  /// The destructor does not validate balance (destructors must not
  /// throw); call done() to assert the document is complete.
  ~JsonWriter() = default;

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Object member key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& nullValue();

  /// Throws std::logic_error unless exactly one complete top-level value
  /// has been written.
  void done() const;

 private:
  enum class Scope { kObject, kArray };

  void beforeValue();
  void writeNewlineIndent();
  void raw(std::string_view s) { os_ << s; }

  std::ostream& os_;
  int indent_;
  std::vector<Scope> stack_;
  bool needComma_ = false;   ///< a sibling precedes the next element
  bool keyPending_ = false;  ///< key() written, its value not yet
  bool topDone_ = false;     ///< one complete top-level value emitted
};

}  // namespace cdbp
