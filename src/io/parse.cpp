#include "io/parse.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <istream>
#include <iterator>
#include <numeric>

namespace pfair {

namespace {

/// operator>>'s separators in the C locale, less the '\n' ending a line.
bool is_sep(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

/// The next token of `rest`, consumed from it; empty once none is left.
std::string_view next_token(std::string_view& rest) {
  std::size_t i = 0;
  while (i < rest.size() && is_sep(rest[i])) ++i;
  std::size_t j = i;
  while (j < rest.size() && !is_sep(rest[j])) ++j;
  const std::string_view tok = rest.substr(i, j - i);
  rest.remove_prefix(j);
  return tok;
}

/// A whole token as a decimal int64 with stoll's optional sign.
std::int64_t parse_int(std::string_view tok, int lineno,
                       std::string_view what) {
  std::string_view digits = tok;
  // from_chars takes '-' but not '+'; "+-1" stays refused.
  if (digits.size() > 1 && digits[0] == '+' && digits[1] != '-') {
    digits.remove_prefix(1);
  }
  std::int64_t v = 0;
  const char* end = digits.data() + digits.size();
  const auto res = std::from_chars(digits.data(), end, v);
  PFAIR_REQUIRE_INPUT(
      res.ec == std::errc() && res.ptr == end,
      "line " << lineno << ": bad " << what << " '" << tok << "'");
  return v;
}

Weight parse_weight(std::string_view tok, int lineno) {
  const auto slash = tok.find('/');
  PFAIR_REQUIRE_INPUT(slash != std::string_view::npos,
                      "line " << lineno << ": weight must be e/p, got '" << tok
                              << "'");
  const std::int64_t e = parse_int(tok.substr(0, slash), lineno, "weight");
  const std::int64_t p = parse_int(tok.substr(slash + 1), lineno, "weight");
  PFAIR_REQUIRE_INPUT(e >= 1 && p >= e,
                      "line " << lineno << ": weight " << tok
                              << " outside (0, 1]");
  return Weight(e, p);
}

}  // namespace

ParsedSystem parse_task_string(std::string_view text) {
  ParsedSystem out;
  // At most one task a line, and a task line takes >= 10 bytes: the bound
  // keeps a file of blank lines from reserving more than its size.
  const auto lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  out.tasks.reserve(std::min(lines + 1, text.size() / 10 + 1));
  bool saw_processors = false;
  int lineno = 0;
  while (!text.empty()) {
    ++lineno;
    const std::size_t len = std::min(text.find('\n'), text.size());
    std::string_view rest = text.substr(0, len);
    rest = rest.substr(0, rest.find('#'));
    text.remove_prefix(std::min(len + 1, text.size()));
    // Blank means only ' ', '\t' and '\r' are left; a line holding '\v'
    // or '\f' but no token is the unknown keyword ''.
    if (rest.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    const std::string_view kw = next_token(rest);
    if (kw == "processors") {
      const std::int64_t m =
          parse_int(next_token(rest), lineno, "processor count");
      PFAIR_REQUIRE_INPUT(m >= 1 && m <= 1024,
                          "line " << lineno << ": processor count " << m);
      out.processors = static_cast<int>(m);
      saw_processors = true;
    } else if (kw == "horizon") {
      out.horizon = parse_int(next_token(rest), lineno, "horizon");
      PFAIR_REQUIRE_INPUT(out.horizon >= 1,
                          "line " << lineno << ": horizon must be >= 1");
    } else if (kw == "task") {
      const std::string_view name = next_token(rest);
      const std::string_view wtok = next_token(rest);
      PFAIR_REQUIRE_INPUT(
          !name.empty() && !wtok.empty(),
          "line " << lineno << ": task needs a name and weight");
      ParsedTask& t = out.tasks.emplace_back();
      t.name = name;
      t.line = lineno;
      t.weight = parse_weight(wtok, lineno);
      for (std::string_view opt = next_token(rest); !opt.empty();
           opt = next_token(rest)) {
        const auto eq = opt.find('=');
        PFAIR_REQUIRE_INPUT(
            eq != std::string_view::npos,
            "line " << lineno << ": bad option '" << opt << "'");
        const std::string_view key = opt.substr(0, eq);
        PFAIR_REQUIRE_INPUT(
            key == "phase" || key == "jobs",
            "line " << lineno << ": unknown option '" << key << "'");
        const std::int64_t val = parse_int(opt.substr(eq + 1), lineno, key);
        if (key == "phase") {
          PFAIR_REQUIRE_INPUT(val >= 0, "line " << lineno << ": phase >= 0");
          t.phase = val;
        } else {
          PFAIR_REQUIRE_INPUT(val >= 1, "line " << lineno << ": jobs >= 1");
          t.jobs = val;
        }
      }
    } else {
      PFAIR_REQUIRE_INPUT(
          false, "line " << lineno << ": unknown keyword '" << kw << "'");
    }
  }
  PFAIR_REQUIRE_INPUT(saw_processors, "missing 'processors' line");
  PFAIR_REQUIRE_INPUT(!out.tasks.empty(), "no tasks defined");
  return out;
}

ParsedSystem parse_task_file(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return parse_task_string(text);
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
    PFAIR_REQUIRE_INPUT(
        t.jobs > 0 || t.phase < kCap,
        "line " << t.line << ": phase " << t.phase << " is at or past the "
                << kCap << "-slot default horizon; add a 'horizon' line");
    std::int64_t end = 0;
    PFAIR_REQUIRE_INPUT(
        !__builtin_add_overflow(t.phase, 2 * h, &end),
        "line " << t.line << ": phase " << t.phase
                << " plus two hyperperiods overflows the horizon");
    max_phase = std::max(max_phase, t.phase);
  }
  return std::min(max_phase + 2 * h, kCap);
}

TaskSystem ParsedSystem::build() const {
  const std::int64_t h = effective_horizon();
  // A direct-mapped memo of window tables by raw (e, p): a task whose
  // weight is in it skips the shared cache's gcd, lock and hash lookup.
  struct Memo {
    std::int64_t e = 0, p = 0;
    std::shared_ptr<const WindowTable> table;
  };
  std::array<Memo, 256> memo;
  std::vector<Task> out;
  out.reserve(tasks.size());
  for (const ParsedTask& t : tasks) {
    // The reduced numerator is at most e: only a large e pays the gcd.
    const Weight& w = t.weight;
    PFAIR_REQUIRE_INPUT(w.e <= kMaxWindowTableEntries ||
                            w.e / std::gcd(w.e, w.p) <= kMaxWindowTableEntries,
                        "line " << t.line << ": weight " << w.str()
                                << " needs a window table over 2^20");
    // jobs * e subtasks — exactly those released before phase + jobs * p,
    // the last one's deadline — as a flyweight, so memory is O(1) in jobs.
    std::int64_t end = std::max(h, t.phase);
    if (t.jobs > 0) {
      std::int64_t n = 0, span = 0;
      PFAIR_REQUIRE_INPUT(
          !__builtin_mul_overflow(t.jobs, w.e, &n) &&
              !__builtin_mul_overflow(t.jobs, w.p, &span) &&
              !__builtin_add_overflow(t.phase, span, &end),
          "line " << t.line << ": jobs=" << t.jobs << " of weight " << w.str()
                  << " at phase " << t.phase
                  << " overflows the subtask count or deadlines");
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(w.e) * 0x9e3779b97f4a7c15ULL) ^
        static_cast<std::uint64_t>(w.p);
    Memo& m = memo[(key * 0x9e3779b97f4a7c15ULL) >> 56];
    if (m.e != w.e || m.p != w.p) {
      m = Memo{w.e, w.p, WindowTableCache::global().get(w)};
    }
    out.push_back(Task::periodic_phased(t.name, w, t.phase, end, m.table));
  }
  // Every task joining at or after an explicit horizon builds nothing,
  // and a schedule of nothing would read "valid".
  if (std::none_of(out.begin(), out.end(),
                   [](const Task& t) { return t.num_subtasks() > 0; })) {
    const ParsedTask& first = *std::min_element(
        tasks.begin(), tasks.end(),
        [](const ParsedTask& a, const ParsedTask& b) {
          return a.phase < b.phase;
        });
    PFAIR_REQUIRE_INPUT(false, "line " << first.line
                                       << ": no task joins before the horizon "
                                       << h << " (the earliest at phase "
                                       << first.phase << ")");
  }
  std::int64_t max_deadline = 0;
  std::string why;
  const std::int64_t bad = detail::horizon_overflow(out, max_deadline, why);
  PFAIR_REQUIRE_INPUT(
      bad < 0,
      "line " << tasks[static_cast<std::size_t>(bad)].line << ": " << why);
  return TaskSystem(std::move(out), processors);
}

}  // namespace pfair
