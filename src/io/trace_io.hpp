// Reading trace streams back in — the reverse of trace_event_json().
//
// `pfairsim --trace` writes one JSON object per line (JSONL); these
// helpers parse that stream back into TraceEvent records so offline
// tools (pfairtrace validate / diff) can re-run the invariant auditor
// or compare two runs event by event.  Parsing is strict about types
// but lenient about unknown keys, so the format can grow.
#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "obs/trace.hpp"

namespace pfair {

/// Inverse of to_string(TraceEventKind); nullopt for an unknown name.
[[nodiscard]] std::optional<TraceEventKind> trace_event_kind_from_string(
    std::string_view s);

/// Inverse of to_string(TieRule); nullopt for an unknown name.
[[nodiscard]] std::optional<TieRule> tie_rule_from_string(std::string_view s);

/// Parses one trace_event_json() object.  Throws InputError on a
/// missing/ill-typed required field ("k", "t") or an unknown kind.
[[nodiscard]] TraceEvent trace_event_from_json(const JsonValue& v);

/// Reads a JSONL trace stream: one event per non-blank line.  Throws
/// InputError on the first malformed line (message names the
/// 1-based line number).
[[nodiscard]] std::vector<TraceEvent> read_trace_jsonl(std::istream& is);

}  // namespace pfair
