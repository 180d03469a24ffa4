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
// `parse_task_file` reports the first syntax error with its line number
// via ContractViolation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

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

  /// Materializes the description into a schedulable task system.
  [[nodiscard]] TaskSystem build() const;
  /// The horizon build() will use.
  [[nodiscard]] std::int64_t effective_horizon() const;
};

/// Parses the format above; throws ContractViolation on malformed input.
[[nodiscard]] ParsedSystem parse_task_file(std::istream& in);
[[nodiscard]] ParsedSystem parse_task_string(const std::string& text);

}  // namespace pfair
