// Minimal JSON support for the observability layer: string escaping for
// the writers (trace sinks, bench reports, metrics serialization) and a
// small recursive-descent parser used by tests and tools to validate
// emitted documents.  This is intentionally not a general-purpose JSON
// library — no comments, no trailing commas, UTF-8 passed through.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace pfair {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Parsed JSON value.  Numbers are kept as doubles (plus an exact int64
/// when the literal was integral); objects preserve insertion order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;  ///< valid when `is_integer`
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is(Kind k) const { return kind == k; }
  /// First member named `key`, or nullptr (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// `find` that throws InputError when the key is absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Parses one complete JSON document; throws InputError, naming the
/// offset, on any syntax error or trailing garbage.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Serializes a metrics snapshot:
/// {"counters": {...}, "gauges": {...}, "histograms": {name:
///  {"count": n, "sum": s, "min": m, "max": M, "buckets": [[b, n], ...]}}}
[[nodiscard]] std::string metrics_to_json(const MetricsSnapshot& snap,
                                          int indent = 0);

}  // namespace pfair
