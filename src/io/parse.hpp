// A small text format for describing task systems, consumed by the
// `pfairsim` CLI and usable from tests/benches.
//
//   # comment (also after values)
//   processors 2
//   horizon 24                # optional; default derived from periods
//   task video 1/2            # synchronous periodic, weight e/p
//   task audio 1/3 phase=4    # joins at slot 4
//   task ctrl  3/4 jobs=5     # leaves after 5 jobs (GIS, finite)
//
// The grammar, exactly:
//   * '\n' ends a line; a last line needs no newline.  Lines are numbered
//     from 1 for errors.
//   * '#' starts a comment anywhere, inside a token too ("1/2#c" is 1/2).
//   * Tokens are separated by runs of ' ', '\t', '\v', '\f' and '\r' (so
//     "\r\n" ends a line like "\n").  A line left empty by the comment,
//     or holding only ' ', '\t' and '\r', is blank; one that holds '\v' or
//     '\f' but no token is an unknown keyword ''.
//   * Integers are decimal with one optional leading '+' or '-' and must
//     fit in int64 ("bad <what> '<token>'" otherwise).
//   * `processors N` (1..1024) and `horizon N` (>= 1) ignore any tokens
//     after N; the last one of each wins.  `task NAME E/P [phase=N]
//     [jobs=N]...` takes options in any order, the last one winning.
//   * A file needs a `processors` line and at least one task.
// Parsing is one pass over the text with no per-line or per-token
// allocation: O(bytes), plus the tasks' names.  `parse_task_file` and
// `ParsedSystem::build` report the first error in the input as an
// InputError naming its line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/assert.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

/// Parsed, not-yet-materialized task description.
struct ParsedTask {
  std::string name;
  Weight weight;
  std::int64_t phase = 0;
  std::int64_t jobs = -1;  ///< -1: recur through the horizon
  int line = 0;            ///< source line, for errors found by build()
};

struct ParsedSystem {
  int processors = 1;
  std::int64_t horizon = 0;  ///< 0: auto (two hyperperiods, capped)
  std::vector<ParsedTask> tasks;

  /// Materializes the description into a schedulable task system;
  /// throws InputError on values the task model cannot represent.  Each
  /// distinct weight's window table is looked up once per call.
  [[nodiscard]] TaskSystem build() const;
  /// The horizon build() will use.  Without a `horizon` line, a
  /// recurring task must join before the default horizon's cap (an
  /// InputError otherwise: it would build no subtasks).
  [[nodiscard]] std::int64_t effective_horizon() const;
};

/// Parses the format above; throws InputError on malformed input.
[[nodiscard]] ParsedSystem parse_task_string(std::string_view text);
/// Reads the whole stream, then parses it as `parse_task_string` does.
[[nodiscard]] ParsedSystem parse_task_file(std::istream& in);

}  // namespace pfair
