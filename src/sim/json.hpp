// Minimal JSON writer shared by stats, benches, and the scope exporters.
//
// One serializer for every byte of JSON the repo emits: the ad-hoc printf
// fragments that used to live in sim::MachineStats and the bench binaries
// all route through here, as do the Chrome trace and metrics exports of
// bfly::scope.  The writer is append-only (objects/arrays open and close in
// stack order), escapes strings per RFC 8259, and never emits NaN/Inf
// (non-finite doubles are written as 0 so the output always parses).
//
// A key repeated inside one object (or one fragment) fails an assert, so a
// malformed row dies where it is written instead of at read-back.  Keys
// spliced in with raw() are not seen; their own Writer checked them.
//
// Two output shapes:
//   * a complete value   — begin_object()...end_object(), then str()/take();
//   * a braceless *fragment* — Writer(Writer::kFragment), kv(...) pairs
//     only, for callers that splice fields into an object they are printing
//     themselves (MachineStats::fault_json(), bench rows).
#pragma once

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace bfly::sim::json {

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
inline void escape_to(std::string& out, std::string_view s) {
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
}

inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  escape_to(out, s);
  return out;
}

class Writer {
 public:
  enum Shape { kValue, kFragment };

  explicit Writer(Shape shape = kValue) : shape_(shape) {}

  Writer& begin_object() {
    comma();
    out_ += '{';
    open();
    return *this;
  }
  Writer& end_object() {
    out_ += '}';
    close();
    return *this;
  }
  Writer& begin_array() {
    comma();
    out_ += '[';
    open();
    return *this;
  }
  Writer& end_array() {
    out_ += ']';
    close();
    return *this;
  }

  Writer& key(std::string_view k) {
#ifndef NDEBUG
    std::vector<std::string>& seen = keys_.back();
    assert(std::find(seen.begin(), seen.end(), k) == seen.end() &&
           "json::Writer: duplicate key in one object");
    seen.emplace_back(k);
#endif
    comma();
    out_ += '"';
    escape_to(out_, k);
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }

  Writer& value(std::string_view v) {
    comma();
    out_ += '"';
    escape_to(out_, v);
    out_ += '"';
    return *this;
  }
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  // Numbers go through std::to_chars: the same bytes as printf's "%.9g",
  // "%llu" and "%lld" (to_chars with a precision is specified as printf),
  // without printf's format parsing and locale.
  Writer& value(double v) {
    comma();
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    append(buf, std::to_chars(buf, buf + sizeof buf, v,
                              std::chars_format::general, 9));
    return *this;
  }
  Writer& value(std::uint64_t v) {
    comma();
    char buf[24];
    append(buf, std::to_chars(buf, buf + sizeof buf, v));
    return *this;
  }
  Writer& value(std::int64_t v) {
    comma();
    char buf[24];
    append(buf, std::to_chars(buf, buf + sizeof buf, v));
    return *this;
  }
  Writer& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  Writer& value(std::int32_t v) { return value(std::int64_t{v}); }

  /// Splice pre-serialized JSON (e.g. a fragment from another Writer).
  Writer& raw(std::string_view json) {
    comma();
    out_ += json;
    return *this;
  }

  template <typename T>
  Writer& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void append(const char* buf, std::to_chars_result r) {
    assert(r.ec == std::errc{});
    out_.append(buf, static_cast<std::size_t>(r.ptr - buf));
  }
  void open() {
    stack_.push_back(false);
#ifndef NDEBUG
    keys_.emplace_back();
#endif
  }
  void close() {
    stack_.pop_back();
#ifndef NDEBUG
    keys_.pop_back();
#endif
  }

  // Insert the separating comma where a value/key begins.  A value directly
  // after key() never takes one; the first element of a container never
  // takes one; fragment writers separate top-level pairs themselves.
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back()) out_ += ',';
      stack_.back() = true;
    } else if (shape_ == kFragment) {
      if (top_used_) out_ += ',';
      top_used_ = true;
    }
  }

  Shape shape_;
  std::string out_;
  std::vector<bool> stack_;
  bool pending_value_ = false;
  bool top_used_ = false;
#ifndef NDEBUG
  // Keys written so far at each nesting level, the top level (a fragment's
  // pairs) first; arrays keep an empty list.
  std::vector<std::vector<std::string>> keys_ =
      std::vector<std::vector<std::string>>(1);
#endif
};

}  // namespace bfly::sim::json
