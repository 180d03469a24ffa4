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
// `parse_task_file` and `ParsedSystem::build` report the first error in
// the input as an InputError naming its line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "tasks/task_system.hpp"

namespace pfair {

/// Malformed or out-of-range task-file input.  what() is the
/// line-numbered message alone; ContractViolation stays for bugs.
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
  /// throws InputError on values the task model cannot represent.
  [[nodiscard]] TaskSystem build() const;
  /// The horizon build() will use.  Without a `horizon` line, a
  /// recurring task must join before the default horizon's cap (an
  /// InputError otherwise: it would build no subtasks).
  [[nodiscard]] std::int64_t effective_horizon() const;
};

/// Parses the format above; throws InputError on malformed input.
[[nodiscard]] ParsedSystem parse_task_file(std::istream& in);
[[nodiscard]] ParsedSystem parse_task_string(const std::string& text);

}  // namespace pfair
