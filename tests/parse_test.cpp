// Tests for the task-file parser behind the pfairsim CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/tardiness.hpp"
#include "core/rng.hpp"
#include "io/parse.hpp"
#include "sched/sfq_scheduler.hpp"

namespace pfair {
namespace {

// ---------------------------------------------------------------------
// The istream parser that preceded the one-pass parser in src/io/parse,
// kept verbatim as the differential oracle: getline per line, an
// istringstream per line, a std::string per token and std::stoll.

#define REQUIRE_INPUT(cond, msg)   \
  do {                             \
    if (!(cond)) {                 \
      std::ostringstream os_;      \
      os_ << msg;                  \
      throw InputError(os_.str()); \
    }                              \
  } while (0)

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

ParsedSystem reference_parse(std::istream& in) {
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

#undef REQUIRE_INPUT

ParsedSystem reference_parse(const std::string& text) {
  std::istringstream is(text);
  return reference_parse(is);
}

TEST(Parse, MinimalFile) {
  const ParsedSystem p = parse_task_string(
      "processors 2\n"
      "task a 1/2\n"
      "task b 1/2\n");
  EXPECT_EQ(p.processors, 2);
  ASSERT_EQ(p.tasks.size(), 2u);
  EXPECT_EQ(p.tasks[0].name, "a");
  EXPECT_EQ(p.tasks[0].weight, Weight(1, 2));
  EXPECT_EQ(p.tasks[0].jobs, -1);
}

TEST(Parse, CommentsAndBlankLines) {
  const ParsedSystem p = parse_task_string(
      "# header comment\n"
      "\n"
      "processors 1   # trailing\n"
      "   task x 3/4  # also trailing\n");
  EXPECT_EQ(p.processors, 1);
  ASSERT_EQ(p.tasks.size(), 1u);
  EXPECT_EQ(p.tasks[0].weight, Weight(3, 4));
}

TEST(Parse, OptionsPhaseAndJobs) {
  const ParsedSystem p = parse_task_string(
      "processors 2\n"
      "horizon 30\n"
      "task a 1/3 phase=4\n"
      "task b 2/5 jobs=3 phase=1\n");
  EXPECT_EQ(p.horizon, 30);
  EXPECT_EQ(p.tasks[0].phase, 4);
  EXPECT_EQ(p.tasks[1].jobs, 3);
  EXPECT_EQ(p.tasks[1].phase, 1);
}

/// An input error's message is the line-numbered text alone: none of
/// PFAIR_REQUIRE's expression or source location leaks into it.
void expect_clean_message(const InputError& e) {
  const std::string what = e.what();
  EXPECT_EQ(what.find("failed: ("), std::string::npos) << what;
  EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
}

TEST(Parse, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      (void)parse_task_string(text);
      FAIL() << "expected failure for: " << text;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
      expect_clean_message(e);
    }
  };
  expect_error("processors 2\nbogus line\n", "line 2");
  expect_error("processors 2\ntask a 5/4\n", "outside");
  expect_error("processors 2\ntask a 1/2 color=red\n", "unknown option");
  expect_error("processors 2\ntask a one/2\n", "bad weight");
  expect_error("processors 0\ntask a 1/2\n", "processor count");
  expect_error("task a 1/2\n", "missing 'processors'");
  expect_error("processors 2\n", "no tasks");
}

/// Parses `text` (which must parse) and expects build() to throw an
/// InputError whose message contains every needle.
void expect_build_error(const std::string& text,
                        const std::vector<std::string>& needles) {
  const ParsedSystem p = parse_task_string(text);
  try {
    (void)p.build();
    FAIL() << "expected build failure for: " << text;
  } catch (const InputError& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    expect_clean_message(e);
  }
}

// A phase near 2^63 used to overflow max_phase + 2 * hyperperiod in the
// default horizon (signed overflow, then a "valid" run over no subtasks).
TEST(Parse, HugePhaseOverflowingTheHorizonIsRejected) {
  const std::string text =
      "processors 1\n"
      "task a 1/2\n"
      "task b 1/3 phase=9223372036854775807\n";
  expect_build_error(text, {"line 3", "phase 9223372036854775807"});
  EXPECT_THROW((void)parse_task_string(text).effective_horizon(),
               InputError);
  // A jobs= task is exempt from the default-horizon phase cap, so its
  // huge phase reaches the overflow check itself.
  expect_build_error(
      "processors 1\n"
      "task a 1/2\n"
      "task b 1/3 jobs=1 phase=9223372036854775807\n",
      {"line 3", "plus two hyperperiods overflows"});
  // A huge period no longer overflows the hyperperiod either: the
  // default horizon is capped.
  const ParsedSystem wide = parse_task_string(
      "processors 1\ntask a 1/3\ntask b 1/9223372036854775807\n");
  EXPECT_EQ(wide.effective_horizon(), 4096);
  // With an explicit horizon the phase only delays the task.
  const ParsedSystem late = parse_task_string(
      "processors 1\nhorizon 8\ntask a 1/2\n"
      "task b 1/3 phase=9223372036854775807\n");
  EXPECT_EQ(late.build().task(1).num_subtasks(), 0);
}

// An explicit horizon before every task's phase built no subtasks, and
// pfairsim printed "validity: valid" with no decision points.  It is an
// input error naming the horizon and the earliest-joining task's line; a
// single late joiner beside a task that builds stays legal (the `late`
// case above).
TEST(Parse, HorizonBeforeEveryReleaseIsRejected) {
  expect_build_error("processors 2\nhorizon 50\ntask a 1/2 phase=60\n",
                     {"line 3", "horizon 50", "phase 60"});
  expect_build_error(
      "processors 2\nhorizon 50\n"
      "task a 1/2 phase=90\n"
      "task b 1/3 phase=50\n",
      {"line 4", "horizon 50", "phase 50"});
  EXPECT_EQ(parse_task_string("processors 2\nhorizon 50\n"
                              "task a 1/2 phase=49\n")
                .build()
                .task(0)
                .num_subtasks(),
            1);
  // A jobs= task builds its subtasks past any horizon.
  EXPECT_EQ(parse_task_string("processors 2\nhorizon 50\n"
                              "task a 1/2 jobs=2 phase=60\n")
                .build()
                .total_subtasks(),
            2);
}

// A recurring task joining at or past the 4096-slot default-horizon cap
// used to build no subtasks, and pfairsim printed "validity: valid" over
// nothing.  Below the cap the horizon is unchanged; a horizon line or a
// jobs= count (whose subtasks exist past any horizon) still builds.
TEST(Parse, PhaseAtTheDefaultHorizonCapIsRejected) {
  expect_build_error("processors 2\ntask a 1/2 phase=4096\n",
                     {"line 2", "phase 4096", "'horizon' line"});
  const ParsedSystem below =
      parse_task_string("processors 2\ntask a 1/2 phase=4095\n");
  EXPECT_EQ(below.effective_horizon(), 4096);
  EXPECT_EQ(below.build().task(0).num_subtasks(), 1);
  EXPECT_EQ(parse_task_string("processors 2\nhorizon 4100\n"
                              "task a 1/2 phase=4096\n")
                .build()
                .task(0)
                .num_subtasks(),
            2);
  EXPECT_EQ(parse_task_string("processors 2\ntask a 1/2\n"
                              "task b 1/2 jobs=2 phase=5000\n")
                .build()
                .task(1)
                .num_subtasks(),
            2);
}

// A weight's reduced numerator sizes its window table; 2^62 - 1 used to
// abort the build with an uncaught std::length_error, and a mid-range one
// allocated gigabytes.  The refusal names the line and the weight.
TEST(Parse, HugeWeightNumeratorIsRejected) {
  expect_build_error(
      "processors 2\n"
      "task a 4611686018427387903/4611686018427387904\n"
      "task b 1/2\n",
      {"line 2", "weight 4611686018427387903/4611686018427387904",
       "window table"});
}

// jobs * e (the subtask count) and phase + jobs * p (the last deadline)
// are checked before the finite task is built.
TEST(Parse, JobCountOverflowIsRejected) {
  expect_build_error(
      "processors 1\n"
      "task a 1/2\n"
      "\n"
      "task b 3/4 jobs=4611686018427387904\n",
      {"line 4", "jobs=4611686018427387904", "overflows"});
  expect_build_error(
      "processors 1\n"
      "task b 1/4 jobs=3 phase=9223372036854775800\n",
      {"line 2", "overflows"});
  // In range, the same options still build.
  const TaskSystem ok =
      parse_task_string("processors 1\ntask b 3/4 jobs=2 phase=7\n").build();
  EXPECT_EQ(ok.task(0).num_subtasks(), 6);
}

// A finite task is a flyweight periodic task: building one costs O(1) in
// its job count (the subtasks are never materialized, or scheduled here).
TEST(Parse, HugeJobCountBuildsFlyweight) {
  const TaskSystem sys =
      parse_task_string("processors 1\ntask a 1/2 jobs=100000000\n").build();
  EXPECT_EQ(sys.task(0).num_subtasks(), 100000000);
  EXPECT_EQ(sys.task(0).subtask_at(99999999).deadline, 200000000);
}

// The flyweight has the subtask sequence the GIS construction of the
// same jobs (every index 1..jobs*e, offset = phase, eligible at release)
// had.
TEST(Parse, JobsMatchTheGisConstruction) {
  for (const Weight w : {Weight(1, 2), Weight(2, 5), Weight(3, 4),
                         Weight(5, 7), Weight(4, 6)}) {
    for (const std::int64_t phase : {0, 1, 5}) {
      for (const std::int64_t jobs : {1, 2, 5}) {
        const std::string line = "task a " + w.str() +
                                 " jobs=" + std::to_string(jobs) +
                                 " phase=" + std::to_string(phase);
        const TaskSystem sys =
            parse_task_string("processors 1\n" + line + "\n").build();
        std::vector<Task::SubtaskSpec> specs;
        for (std::int64_t i = 1; i <= jobs * w.e; ++i) {
          specs.push_back(Task::SubtaskSpec{i, phase, -1});
        }
        const Task gis = Task::gis("a", w, specs);
        const Task& fly = sys.task(0);
        ASSERT_EQ(fly.num_subtasks(), gis.num_subtasks()) << line;
        for (std::int64_t s = 0; s < gis.num_subtasks(); ++s) {
          const Subtask a = fly.subtask_at(s);
          const Subtask b = gis.subtask_at(s);
          EXPECT_EQ(a.index, b.index) << line << " seq " << s;
          EXPECT_EQ(a.release, b.release) << line << " seq " << s;
          EXPECT_EQ(a.deadline, b.deadline) << line << " seq " << s;
          EXPECT_EQ(a.eligible, b.eligible) << line << " seq " << s;
          EXPECT_EQ(a.bbit, b.bbit) << line << " seq " << s;
          EXPECT_EQ(a.group_deadline, b.group_deadline)
              << line << " seq " << s;
        }
      }
    }
  }
}

TEST(Parse, EffectiveHorizonIsTwoHyperperiods) {
  const ParsedSystem p = parse_task_string(
      "processors 1\n"
      "task a 1/4\n"
      "task b 1/6\n");
  EXPECT_EQ(p.effective_horizon(), 24);  // 2 * lcm(4,6)
}

TEST(Parse, BuildProducesSchedulableSystem) {
  const ParsedSystem p = parse_task_string(
      "processors 2\n"
      "task a 1/2\n"
      "task b 1/2\n"
      "task c 2/3 phase=3\n"
      "task d 1/6 jobs=2\n");
  const TaskSystem sys = p.build();
  EXPECT_EQ(sys.processors(), 2);
  EXPECT_EQ(sys.num_tasks(), 4);
  // Finite task d has exactly jobs * e subtasks.
  EXPECT_EQ(sys.task(3).num_subtasks(), 2);
  // Phased task c's first release is at its phase.
  EXPECT_EQ(sys.task(2).subtask(0).release, 3);
  const SlotSchedule sched = schedule_sfq(sys);
  ASSERT_TRUE(sched.complete());
  EXPECT_EQ(measure_tardiness(sys, sched).max_ticks, 0);
}

TEST(Parse, HorizonOverrideRespected) {
  const ParsedSystem p = parse_task_string(
      "processors 1\n"
      "horizon 8\n"
      "task a 1/2\n");
  const TaskSystem sys = p.build();
  EXPECT_EQ(sys.task(0).num_subtasks(), 4);  // releases 0,2,4,6 < 8
}

// A period past 2^43 slots used to overflow Time::slots inside the
// simulators (DVQ reported the subtask unscheduled, staggered PD2 a
// deadline miss); the build now reports the task's line instead.
TEST(Parse, HorizonPastTheTickRangeIsRejected) {
  expect_build_error("processors 1\ntask x 1/2\ntask a 1/9000000000000\n",
                     {"line 3", "task 'a'", "9000000000000"});
  const TaskSystem ok =
      parse_task_string("processors 1\ntask a 1/8796093022000\n").build();
  EXPECT_EQ(ok.max_deadline(), 8796093022000);
}

// ---------------------------------------------------------------------
// The accepted language, pinned explicitly (each case also agrees with
// the oracle above).

/// Parses `text` with both parsers, expects them to agree, and returns
/// the one-pass parser's result.
ParsedSystem parse_both(const std::string& text) {
  const ParsedSystem fast = parse_task_string(text);
  const ParsedSystem ref = reference_parse(text);
  EXPECT_EQ(fast.processors, ref.processors);
  EXPECT_EQ(fast.horizon, ref.horizon);
  EXPECT_EQ(fast.tasks.size(), ref.tasks.size());
  return fast;
}

TEST(Parse, PlusSignedIntegerIsAccepted) {
  const ParsedSystem p = parse_both("processors +2\ntask a +1/2\n");
  EXPECT_EQ(p.processors, 2);
  EXPECT_EQ(p.tasks[0].weight.e, 1);
  EXPECT_EQ(p.tasks[0].weight.p, 2);
}

TEST(Parse, TokensAfterProcessorsAndHorizonAreIgnored) {
  const ParsedSystem p =
      parse_both("processors 2 junk\nhorizon 9 more junk\ntask a 1/2\n");
  EXPECT_EQ(p.processors, 2);
  EXPECT_EQ(p.horizon, 9);
}

TEST(Parse, CrLfLinesParseLikeLfLines) {
  const ParsedSystem lf = parse_both("processors 2\ntask a 1/2 phase=3\n");
  const ParsedSystem crlf =
      parse_both("processors 2\r\ntask a 1/2 phase=3\r\n");
  ASSERT_EQ(crlf.tasks.size(), 1u);
  EXPECT_EQ(crlf.processors, lf.processors);
  EXPECT_EQ(crlf.tasks[0].name, "a");
  EXPECT_EQ(crlf.tasks[0].phase, 3);
  EXPECT_EQ(crlf.tasks[0].line, lf.tasks[0].line);
}

TEST(Parse, CommentEndsAToken) {
  const ParsedSystem p = parse_both("processors 2\ntask a 1/2#c\n");
  EXPECT_EQ(p.tasks[0].weight.e, 1);
  EXPECT_EQ(p.tasks[0].weight.p, 2);
}

TEST(Parse, PhaseOfTwoToThe63IsALineNumberedBadPhase) {
  const std::string text =
      "processors 2\n\ntask a 1/2 phase=9223372036854775808\n";
  try {
    (void)parse_task_string(text);
    FAIL() << "expected a bad phase";
  } catch (const InputError& e) {
    EXPECT_STREQ(e.what(), "line 3: bad phase '9223372036854775808'");
  }
  EXPECT_THROW((void)reference_parse(text), InputError);
}

TEST(Parse, LastLineNeedsNoNewline) {
  const ParsedSystem p = parse_both("processors 2\ntask a 1/2\ntask b 1/3");
  ASSERT_EQ(p.tasks.size(), 2u);
  EXPECT_EQ(p.tasks[1].name, "b");
  EXPECT_EQ(p.tasks[1].line, 3);
}

TEST(Parse, VerticalTabOrFormFeedAloneIsAnEmptyKeyword) {
  for (const char* sep : {"\v", "\f", " \v\t"}) {
    const std::string text = std::string("processors 2\n") + sep + "\n";
    try {
      (void)parse_task_string(text);
      FAIL() << "expected an unknown keyword";
    } catch (const InputError& e) {
      EXPECT_STREQ(e.what(), "line 2: unknown keyword ''");
    }
  }
}

TEST(Parse, ReadsAStreamLikeAString) {
  const std::string text = "processors 3\ntask a 2/5 jobs=4\n";
  std::istringstream in(text);
  const ParsedSystem p = parse_task_file(in);
  EXPECT_EQ(p.processors, 3);
  EXPECT_EQ(p.tasks[0].jobs, 4);
}

// ---------------------------------------------------------------------
// Differential check: a deterministic mutator against the oracle.

/// A parse's result: the system, or the text of the error it threw.
struct Outcome {
  enum class Kind { kOk, kInputError, kOther } kind = Kind::kOk;
  ParsedSystem sys;
  std::string error;
};

template <class Parse>
Outcome outcome_of(const std::string& text, Parse parse) {
  Outcome o;
  try {
    o.sys = parse(text);
  } catch (const InputError& e) {
    o.kind = Outcome::Kind::kInputError;
    o.error = e.what();
  } catch (const std::exception& e) {
    o.kind = Outcome::Kind::kOther;
    o.error = e.what();
  }
  return o;
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  if (a.kind != b.kind || a.error != b.error) return false;
  if (a.sys.processors != b.sys.processors ||
      a.sys.horizon != b.sys.horizon ||
      a.sys.tasks.size() != b.sys.tasks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sys.tasks.size(); ++i) {
    const ParsedTask& x = a.sys.tasks[i];
    const ParsedTask& y = b.sys.tasks[i];
    if (x.name != y.name || x.weight.e != y.weight.e ||
        x.weight.p != y.weight.p || x.phase != y.phase || x.jobs != y.jobs ||
        x.line != y.line) {
      return false;
    }
  }
  return true;
}

/// `s` with every byte outside printable ASCII as \xNN.
std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\') {
      out += c;
    } else {
      static const char* kHex = "0123456789abcdef";
      out += "\\x";
      out += kHex[u >> 4];
      out += kHex[u & 15];
    }
  }
  return out;
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r' ||
         c == '\n';
}

/// Byte flips, inserts and deletes, token splices, numeric boundary
/// swaps, separator swaps and weight swaps, 1-4 per mutant.
class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string next() {
    std::string s = corpus_[pick(corpus_.size())];
    for (std::size_t r = 1 + pick(4); r > 0; --r) mutate(s);
    return s;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.next_u64() % n);
  }

  /// [begin, end) of a token at or after a random position; {n, n} if
  /// none.
  std::pair<std::size_t, std::size_t> some_token(const std::string& s) {
    std::size_t b = s.empty() ? 0 : pick(s.size());
    while (b < s.size() && is_space(s[b])) ++b;
    while (b > 0 && !is_space(s[b - 1])) --b;
    std::size_t e = b;
    while (e < s.size() && !is_space(s[e])) ++e;
    return {b, e};
  }

  /// [begin, end) of a signed digit run at or after a random position.
  std::pair<std::size_t, std::size_t> some_number(const std::string& s) {
    std::size_t b = s.empty() ? 0 : pick(s.size());
    while (b < s.size() && (s[b] < '0' || s[b] > '9')) ++b;
    while (b > 0 && s[b - 1] >= '0' && s[b - 1] <= '9') --b;
    std::size_t e = b;
    while (e < s.size() && s[e] >= '0' && s[e] <= '9') ++e;
    if (b > 0 && (s[b - 1] == '+' || s[b - 1] == '-')) --b;
    return {b, e};
  }

  void mutate(std::string& s) {
    static constexpr std::array<const char*, 20> kNumbers = {
        "0", "-1", "+7", "-0", "007", "1024", "1025",
        "-9223372036854775808", "9223372036854775807",
        "9223372036854775808", "-9223372036854775809",
        "99999999999999999999999", "4095", "4096", "+-1", "--1", "1e3",
        "0x10", "+", ""};
    static constexpr std::array<const char*, 12> kWeights = {
        "5/4", "1/0", "0/1", "+7/8", "1/-1", "4095/4096", "1/2/3", "/2",
        "1/", "1048575/1048576", "1/1099511627776", "-1/2"};
    static constexpr std::array<const char*, 7> kSeps = {
        " ", "\t", "\v", "\f", "\r", "\r\n", "\n"};
    static constexpr char kBytes[] =
        "0123456789+-/=#ptaskjobhrizonc \t\v\f\r\n";
    const std::size_t at = pick(s.size() + 1);
    switch (pick(9)) {
      case 0:  // flip one bit of one byte
        if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1:  // insert a byte the grammar cares about
        s.insert(at, 1, kBytes[pick(sizeof kBytes - 1)]);
        break;
      case 2:  // delete a short run
        if (at < s.size()) s.erase(at, 1 + pick(8));
        break;
      case 3: {  // splice in a token from any corpus entry
        const std::string& donor = corpus_[pick(corpus_.size())];
        const auto [b, e] = some_token(donor);
        s.insert(at, donor.substr(b, e - b));
        break;
      }
      case 4: {  // replace a number with a boundary value
        const auto [b, e] = some_number(s);
        if (b < s.size()) s.replace(b, e - b, kNumbers[pick(kNumbers.size())]);
        break;
      }
      case 5: {  // replace a token with a boundary weight
        const auto [b, e] = some_token(s);
        if (b < s.size()) s.replace(b, e - b, kWeights[pick(kWeights.size())]);
        break;
      }
      case 6: {  // swap a separator for another
        const auto [b, e] = some_token(s);
        if (e < s.size()) s.replace(e, 1, kSeps[pick(kSeps.size())]);
        break;
      }
      case 7: {  // a NUL byte or '#' inside a token
        const auto [b, e] = some_token(s);
        if (e > b) s.insert(b + pick(e - b + 1), 1, pick(2) == 0 ? '\0' : '#');
        break;
      }
      default: {  // duplicate a line (repeated keywords and options)
        const auto [b, e] = some_token(s);
        const std::size_t nl = s.find('\n', e);
        const std::size_t start = s.rfind('\n', b);
        const std::size_t from = start == std::string::npos ? 0 : start + 1;
        const std::size_t to = nl == std::string::npos ? s.size() : nl + 1;
        s.insert(to, s.substr(from, to - from));
        break;
      }
    }
  }

  Rng rng_;
  std::vector<std::string> corpus_;
};

std::vector<std::string> mutator_corpus() {
  std::vector<std::string> corpus = {
      // Every text the tests above parse.
      "processors 2\ntask a 1/2\ntask b 1/2\n",
      "# header comment\n\nprocessors 1   # trailing\n"
      "   task x 3/4  # also trailing\n",
      "processors 2\nhorizon 30\ntask a 1/3 phase=4\n"
      "task b 2/5 jobs=3 phase=1\n",
      "processors 2\nbogus line\n",
      "processors 2\ntask a 5/4\n",
      "processors 2\ntask a 1/2 color=red\n",
      "processors 2\ntask a one/2\n",
      "processors 0\ntask a 1/2\n",
      "task a 1/2\n",
      "processors 2\n",
      "processors 1\ntask a 1/2\ntask b 1/3 phase=9223372036854775807\n",
      "processors 1\ntask a 1/2\ntask b 1/3 jobs=1 "
      "phase=9223372036854775807\n",
      "processors 1\ntask a 1/3\ntask b 1/9223372036854775807\n",
      "processors 1\nhorizon 8\ntask a 1/2\n"
      "task b 1/3 phase=9223372036854775807\n",
      "processors 2\ntask a 1/2 phase=4096\n",
      "processors 2\ntask a 1/2 phase=4095\n",
      "processors 2\nhorizon 4100\ntask a 1/2 phase=4096\n",
      "processors 2\ntask a 1/2\ntask b 1/2 jobs=2 phase=5000\n",
      "processors 2\ntask a 4611686018427387903/4611686018427387904\n"
      "task b 1/2\n",
      "processors 1\ntask a 1/2\n\ntask b 3/4 jobs=4611686018427387904\n",
      "processors 1\ntask b 1/4 jobs=3 phase=9223372036854775800\n",
      "processors 1\ntask b 3/4 jobs=2 phase=7\n",
      "processors 1\ntask a 1/2 jobs=100000000\n",
      "processors 1\ntask a 1/4\ntask b 1/6\n",
      "processors 2\ntask a 1/2\ntask b 1/2\ntask c 2/3 phase=3\n"
      "task d 1/6 jobs=2\n",
      "processors 1\nhorizon 8\ntask a 1/2\n",
      "processors 1\ntask x 1/2\ntask a 1/9000000000000\n",
      "processors 1\ntask a 1/8796093022000\n",
      "processors +2\ntask a +1/2\n",
      "processors 2 junk\nhorizon 9 more junk\ntask a 1/2\n",
      "processors 2\r\ntask a 1/2 phase=3\r\n",
      "processors 2\ntask a 1/2#c\n",
      "processors 2\n\ntask a 1/2 phase=9223372036854775808\n",
      "processors 2\ntask a 1/2\ntask b 1/3",
      "processors 2\n\v\n",
      // Hostile task files: deadlines far past the work.
      "processors 2\ntask a 1/2\ntask b 1/1099511627776\n",
      "processors 2\ntask a 1048575/1048576\ntask b 1/1099511627776\n",
  };
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PFAIR_TASKSETS_DIR)) {
    if (entry.path().extension() == ".tasks") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return corpus;
}

TEST(ParseDifferential, MutantsMatchTheReferenceParser) {
  constexpr int kMutants = 20000;
  Mutator mutator(0x5eed'0022, mutator_corpus());
  int accepted = 0, mismatches = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutator.next();
    const Outcome fast = outcome_of(
        text, [](const std::string& t) { return parse_task_string(t); });
    const Outcome ref = outcome_of(
        text, [](const std::string& t) { return reference_parse(t); });
    EXPECT_NE(fast.kind, Outcome::Kind::kOther) << fast.error;
    if (!same_outcome(fast, ref) && ++mismatches <= 5) {
      ADD_FAILURE() << "mutant " << i << " \"" << escaped(text)
                    << "\": fast '" << escaped(fast.error) << "', reference '"
                    << escaped(ref.error) << "'";
    }
    if (fast.kind == Outcome::Kind::kOk) ++accepted;
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_EQ(mismatches, 0);
  // Neither side of the language is left unexercised.
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_LT(accepted, kMutants * 9 / 10);
  std::cout << kMutants << " mutants, " << accepted << " accepted, " << ms
            << " ms\n";
}

}  // namespace
}  // namespace pfair
