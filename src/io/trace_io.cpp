#include "io/trace_io.hpp"

#include <istream>
#include <sstream>
#include <string>

#include "core/assert.hpp"

namespace pfair {

std::optional<TraceEventKind> trace_event_kind_from_string(
    std::string_view s) {
  for (int k = 0; k <= static_cast<int>(TraceEventKind::kAuditFinding);
       ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    if (s == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<TieRule> tie_rule_from_string(std::string_view s) {
  for (int r = 0; r <= static_cast<int>(TieRule::kTie); ++r) {
    const auto rule = static_cast<TieRule>(r);
    if (s == to_string(rule)) return rule;
  }
  return std::nullopt;
}

namespace {

std::int64_t int_or(const JsonValue& v, std::string_view key,
                    std::int64_t fallback) {
  const JsonValue* f = v.find(key);
  if (f == nullptr) return fallback;
  PFAIR_REQUIRE_INPUT(f->is(JsonValue::Kind::kNumber) && f->is_integer,
                      "trace field \"" << key << "\" must be an integer");
  return f->integer;
}

}  // namespace

TraceEvent trace_event_from_json(const JsonValue& v) {
  PFAIR_REQUIRE_INPUT(v.is(JsonValue::Kind::kObject),
                      "trace event must be a JSON object");
  const JsonValue& k = v.at("k");
  PFAIR_REQUIRE_INPUT(k.is(JsonValue::Kind::kString),
                      "trace field \"k\" must be a string");
  const auto kind = trace_event_kind_from_string(k.string);
  PFAIR_REQUIRE_INPUT(kind.has_value(),
                      "unknown trace event kind \"" << k.string << "\"");
  TraceEvent e;
  e.kind = *kind;
  e.at = Time::ticks(int_or(v, "t", 0));
  e.subject =
      SubtaskRef{static_cast<std::int32_t>(int_or(v, "task", -1)),
                 static_cast<std::int32_t>(int_or(v, "seq", -1))};
  e.other =
      SubtaskRef{static_cast<std::int32_t>(int_or(v, "vs_task", -1)),
                 static_cast<std::int32_t>(int_or(v, "vs_seq", -1))};
  e.proc = static_cast<int>(int_or(v, "proc", -1));
  if (e.kind == TraceEventKind::kCompare) {
    const JsonValue* rule = v.find("rule");
    if (rule != nullptr) {
      PFAIR_REQUIRE_INPUT(rule->is(JsonValue::Kind::kString),
                          "trace field \"rule\" must be a string");
      const auto r = tie_rule_from_string(rule->string);
      PFAIR_REQUIRE_INPUT(r.has_value(),
                          "unknown tie rule \"" << rule->string << "\"");
      e.aux = static_cast<std::int32_t>(*r);
    }
  } else {
    e.aux = static_cast<std::int32_t>(int_or(v, "aux", 0));
  }
  e.detail = int_or(v, "d", 0);
  return e;
}

std::vector<TraceEvent> read_trace_jsonl(std::istream& is) {
  std::vector<TraceEvent> out;
  std::string line;
  std::int64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::string_view sv = line;
    while (!sv.empty() && (sv.front() == ' ' || sv.front() == '\t' ||
                           sv.front() == '\r')) {
      sv.remove_prefix(1);
    }
    if (sv.empty()) continue;
    try {
      out.push_back(trace_event_from_json(parse_json(sv)));
    } catch (const InputError& e) {
      PFAIR_REQUIRE_INPUT(false, "trace line " << lineno << ": " << e.what());
    }
  }
  return out;
}

}  // namespace pfair
