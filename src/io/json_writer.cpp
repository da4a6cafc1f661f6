#include "io/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace cdbp {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string jsonDouble(double v) {
  std::string out;
  appendJsonDouble(out, v);
  return out;
}

void appendJsonDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) {
    throw std::logic_error("jsonDouble: to_chars failed");
  }
  const std::string_view digits(buf, static_cast<std::size_t>(ptr - buf));
  out += digits;
  // to_chars renders integral doubles bare ("3"); keep the floating type
  // visible so downstream schema readers see a stable type per field.
  if (digits.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(os), indent_(indent) {}

void JsonWriter::writeNewlineIndent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_);
       ++i) {
    os_ << ' ';
  }
}

void JsonWriter::beforeValue() {
  if (topDone_) {
    throw std::logic_error("JsonWriter: document already complete");
  }
  if (stack_.empty()) {
    return;  // top-level value
  }
  if (stack_.back() == Scope::kObject) {
    if (!keyPending_) {
      throw std::logic_error("JsonWriter: value inside object requires key()");
    }
    keyPending_ = false;
    return;  // key() already emitted the separator and indentation
  }
  if (needComma_) raw(",");
  writeNewlineIndent();
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (topDone_ || stack_.empty() || stack_.back() != Scope::kObject) {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  if (keyPending_) {
    throw std::logic_error("JsonWriter: key() while a key awaits its value");
  }
  if (needComma_) raw(",");
  writeNewlineIndent();
  os_ << '"' << jsonEscape(k) << "\":";
  if (indent_ > 0) os_ << ' ';
  keyPending_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  stack_.push_back(Scope::kObject);
  needComma_ = false;
  raw("{");
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  if (stack_.empty() || stack_.back() != Scope::kObject) {
    throw std::logic_error("JsonWriter: endObject() without beginObject()");
  }
  if (keyPending_) {
    throw std::logic_error("JsonWriter: endObject() with a dangling key");
  }
  bool hadMembers = needComma_;
  stack_.pop_back();
  if (hadMembers) writeNewlineIndent();
  raw("}");
  needComma_ = true;
  if (stack_.empty()) topDone_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  stack_.push_back(Scope::kArray);
  needComma_ = false;
  raw("[");
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  if (stack_.empty() || stack_.back() != Scope::kArray) {
    throw std::logic_error("JsonWriter: endArray() without beginArray()");
  }
  bool hadElements = needComma_;
  stack_.pop_back();
  if (hadElements) writeNewlineIndent();
  raw("]");
  needComma_ = true;
  if (stack_.empty()) topDone_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  os_ << '"' << jsonEscape(v) << '"';
  needComma_ = true;
  if (stack_.empty()) topDone_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  raw(v ? "true" : "false");
  needComma_ = true;
  if (stack_.empty()) topDone_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  os_ << v;
  needComma_ = true;
  if (stack_.empty()) topDone_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  os_ << v;
  needComma_ = true;
  if (stack_.empty()) topDone_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  raw(jsonDouble(v));
  needComma_ = true;
  if (stack_.empty()) topDone_ = true;
  return *this;
}

JsonWriter& JsonWriter::nullValue() {
  beforeValue();
  raw("null");
  needComma_ = true;
  if (stack_.empty()) topDone_ = true;
  return *this;
}

void JsonWriter::done() const {
  if (!topDone_ || !stack_.empty()) {
    throw std::logic_error("JsonWriter: document incomplete");
  }
}

}  // namespace cdbp
