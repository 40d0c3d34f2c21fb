#pragma once

// Minimal JSON support for the provenance journal (docs/file_formats.md).
//
// The journal is JSONL — one object per line — written with deterministic
// formatting so journals are byte-comparable across runs and thread counts,
// and read back by the `explain`/`replay` tooling. This header provides
// both directions: escape/format helpers for the writer and a small
// recursive-descent parser for the readers. It is deliberately not a
// general-purpose JSON library: no streaming, no comments, objects keep
// insertion order (journal events are small and key order matters for
// byte-identity checks).

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/error.hpp"

namespace automap {

/// A parsed JSON value. Exactly one of the payload members is meaningful,
/// selected by `kind`; the others stay default-constructed.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in source order (journal schema checks rely on ordering).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// Convenience accessors with fallbacks for absent/mistyped members.
  [[nodiscard]] double num_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string str_or(std::string_view key,
                                   const std::string& fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  /// Doubles the journal wrote as quoted "inf"/"-inf"/"nan" (JSON has no
  /// non-finite literals) read back through this: accepts both a number
  /// and one of those strings.
  [[nodiscard]] double wide_num_or(std::string_view key,
                                   double fallback) const;
};

/// The one checked conversion from a JSON number to an integer in
/// [lo, hi]. A non-number, a fraction, NaN or an out-of-range value throws
/// Error naming `key`, where a bare static_cast would be undefined.
template <typename T>
[[nodiscard]] T json_to_int(const JsonValue& v, std::string_view key,
                            T lo = std::numeric_limits<T>::min(),
                            T hi = std::numeric_limits<T>::max()) {
  // hi + 1.0 rounds to at most 2^bits, so every integral x below it fits.
  const double x = v.number;
  if (v.kind != JsonValue::Kind::kNumber || x != std::trunc(x) ||
      x < static_cast<double>(lo) || x >= static_cast<double>(hi) + 1.0)
    throw Error("field '" + std::string(key) + "' must be an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<T>(x);
}

/// json_to_int of the member `key` of `obj`, or `fallback` when absent.
template <typename T>
[[nodiscard]] T json_int_or(const JsonValue& obj, std::string_view key,
                            T fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? json_to_int<T>(*v, key) : fallback;
}

/// Strict member decoders: a mistyped value throws Error naming `key`
/// instead of falling back to a default. Shared by the option codec and
/// the service's `submit` parser.
[[nodiscard]] bool json_bool(const JsonValue& v, std::string_view key);
[[nodiscard]] std::string json_str(const JsonValue& v, std::string_view key);

/// Parses one JSON document (throws Error on malformed input, with an
/// offset in the message). Trailing whitespace is allowed; trailing
/// content is an error.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Escapes a string for embedding between JSON quotes (handles quote,
/// backslash and control characters; multi-byte UTF-8 passes through).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Deterministic JSON rendering of a double: finite values via %.17g
/// (shortest round-trippable form is locale-independent here), non-finite
/// values as the quoted strings "inf"/"-inf"/"nan" since JSON has no
/// literals for them.
[[nodiscard]] std::string json_double(double value);

/// Lower-case hex rendering of a 64-bit value (mapping hashes exceed
/// JSON's exactly-representable integer range, so they travel as strings).
[[nodiscard]] std::string hex_u64(std::uint64_t value);

}  // namespace automap
