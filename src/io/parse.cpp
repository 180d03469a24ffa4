#include "io/parse.hpp"

#include <algorithm>
#include <istream>
#include <numeric>
#include <sstream>

// PFAIR_REQUIRE's message without its expression and source location:
// every failure here is a fault in the input, not in this program.
#define REQUIRE_INPUT(cond, msg)   \
  do {                             \
    if (!(cond)) {                 \
      std::ostringstream os_;      \
      os_ << msg;                  \
      throw InputError(os_.str()); \
    }                              \
  } while (0)

namespace pfair {

namespace {

/// Strips a trailing comment and surrounding whitespace.
std::string clean(std::string line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

std::int64_t parse_int(const std::string& tok, int lineno,
                       const char* what) {
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(tok, &pos);
  } catch (...) {
    pos = 0;
  }
  REQUIRE_INPUT(pos == tok.size() && !tok.empty(),
                "line " << lineno << ": bad " << what << " '" << tok << "'");
  return v;
}

Weight parse_weight(const std::string& tok, int lineno) {
  const auto slash = tok.find('/');
  REQUIRE_INPUT(slash != std::string::npos,
                "line " << lineno << ": weight must be e/p, got '" << tok
                        << "'");
  const std::int64_t e = parse_int(tok.substr(0, slash), lineno, "weight");
  const std::int64_t p = parse_int(tok.substr(slash + 1), lineno, "weight");
  REQUIRE_INPUT(e >= 1 && p >= e,
                "line " << lineno << ": weight " << tok
                        << " outside (0, 1]");
  return Weight(e, p);
}

}  // namespace

ParsedSystem parse_task_file(std::istream& in) {
  ParsedSystem out;
  bool saw_processors = false;
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = clean(raw);
    if (line.empty()) continue;
    std::istringstream toks(line);
    std::string kw;
    toks >> kw;
    if (kw == "processors") {
      std::string v;
      toks >> v;
      const std::int64_t m = parse_int(v, lineno, "processor count");
      REQUIRE_INPUT(m >= 1 && m <= 1024,
                    "line " << lineno << ": processor count " << m);
      out.processors = static_cast<int>(m);
      saw_processors = true;
    } else if (kw == "horizon") {
      std::string v;
      toks >> v;
      out.horizon = parse_int(v, lineno, "horizon");
      REQUIRE_INPUT(out.horizon >= 1,
                    "line " << lineno << ": horizon must be >= 1");
    } else if (kw == "task") {
      ParsedTask t;
      t.line = lineno;
      std::string wtok;
      toks >> t.name >> wtok;
      REQUIRE_INPUT(!t.name.empty() && !wtok.empty(),
                    "line " << lineno << ": task needs a name and weight");
      t.weight = parse_weight(wtok, lineno);
      std::string opt;
      while (toks >> opt) {
        const auto eq = opt.find('=');
        REQUIRE_INPUT(eq != std::string::npos,
                      "line " << lineno << ": bad option '" << opt << "'");
        const std::string key = opt.substr(0, eq);
        REQUIRE_INPUT(key == "phase" || key == "jobs",
                      "line " << lineno << ": unknown option '" << key
                              << "'");
        const std::int64_t val =
            parse_int(opt.substr(eq + 1), lineno, key.c_str());
        if (key == "phase") {
          REQUIRE_INPUT(val >= 0, "line " << lineno << ": phase >= 0");
          t.phase = val;
        } else {
          REQUIRE_INPUT(val >= 1, "line " << lineno << ": jobs >= 1");
          t.jobs = val;
        }
      }
      out.tasks.push_back(std::move(t));
    } else {
      REQUIRE_INPUT(false,
                    "line " << lineno << ": unknown keyword '" << kw << "'");
    }
  }
  REQUIRE_INPUT(saw_processors, "missing 'processors' line");
  REQUIRE_INPUT(!out.tasks.empty(), "no tasks defined");
  return out;
}

ParsedSystem parse_task_string(const std::string& text) {
  std::istringstream is(text);
  return parse_task_file(is);
}

std::int64_t ParsedSystem::effective_horizon() const {
  if (horizon > 0) return horizon;
  // Two hyperperiods past the latest phase, capped to keep runs sane.
  constexpr std::int64_t kCap = 4096;
  std::int64_t h = 1;
  for (const ParsedTask& t : tasks) {
    // h <= kCap on entry, so the product overflows only past the cap.
    if (__builtin_mul_overflow(h / std::gcd(h, t.weight.p), t.weight.p, &h) ||
        h > kCap) {
      h = kCap + 1;
      break;
    }
  }
  std::int64_t max_phase = 0;
  for (const ParsedTask& t : tasks) {
    // A jobs= task keeps its subtasks past any horizon; a recurring one
    // joining at the cap would build none and be "valid" over nothing.
    REQUIRE_INPUT(t.jobs > 0 || t.phase < kCap,
                  "line " << t.line << ": phase " << t.phase
                          << " is at or past the " << kCap
                          << "-slot default horizon; add a 'horizon' line");
    std::int64_t end = 0;
    REQUIRE_INPUT(!__builtin_add_overflow(t.phase, 2 * h, &end),
                  "line " << t.line << ": phase " << t.phase
                          << " plus two hyperperiods overflows the horizon");
    max_phase = std::max(max_phase, t.phase);
  }
  return std::min(max_phase + 2 * h, kCap);
}

TaskSystem ParsedSystem::build() const {
  const std::int64_t h = effective_horizon();
  std::vector<Task> out;
  out.reserve(tasks.size());
  for (const ParsedTask& t : tasks) {
    // The reduced numerator is at most e: only a large e pays the gcd.
    const Weight& w = t.weight;
    REQUIRE_INPUT(w.e <= kMaxWindowTableEntries ||
                      w.e / std::gcd(w.e, w.p) <= kMaxWindowTableEntries,
                  "line " << t.line << ": weight " << w.str()
                          << " needs a window table over 2^20");
    if (t.jobs > 0) {
      // jobs * e subtasks — exactly those released before phase + jobs * p,
      // the last one's deadline — as a flyweight, so memory is O(1) in
      // jobs.
      std::int64_t n = 0, span = 0, end = 0;
      REQUIRE_INPUT(!__builtin_mul_overflow(t.jobs, t.weight.e, &n) &&
                        !__builtin_mul_overflow(t.jobs, t.weight.p, &span) &&
                        !__builtin_add_overflow(t.phase, span, &end),
                    "line " << t.line << ": jobs=" << t.jobs << " of weight "
                            << t.weight.str() << " at phase " << t.phase
                            << " overflows the subtask count or deadlines");
      out.push_back(Task::periodic_phased(t.name, t.weight, t.phase, end));
    } else {
      out.push_back(Task::periodic_phased(t.name, t.weight, t.phase,
                                          std::max(h, t.phase)));
    }
  }
  std::int64_t max_deadline = 0;
  std::string why;
  const std::int64_t bad = detail::horizon_overflow(out, max_deadline, why);
  REQUIRE_INPUT(bad < 0,
                "line " << tasks[static_cast<std::size_t>(bad)].line << ": "
                        << why);
  return TaskSystem(std::move(out), processors);
}

}  // namespace pfair
