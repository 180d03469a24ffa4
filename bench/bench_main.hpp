// Shared entry point for the experiment binaries.
//
// Every bench_* executable wraps its body in
//
//   int run_bench(pfair::bench::BenchContext& ctx) { ... return ok?0:1; }
//   PFAIR_BENCH_MAIN("fig2_models", run_bench)
//
// and gains a uniform command line:
//
//   --json[=PATH]   write a machine-readable report (default
//                   BENCH_<name>.json in the working directory)
//   --repeat=N      run the body N times; wall-clock min/median/max
//                   over the repetitions land in the report
//   --profile       run each repetition under the self-profiler; the
//                   final repetition's per-phase breakdown lands in the
//                   report's "profile" section and (as prof.* counters)
//                   in its metrics snapshot
//   --prom[=PATH]   dump the final metrics snapshot in Prometheus text
//                   format (default BENCH_<name>.prom)
//
// The report schema ("pfair-bench-v1") bundles the exit code, wall
// times, any scalar values the bench recorded via `ctx.value()`, the
// per-case timings (google-benchmark benches), an optional profile
// section, and a full metrics snapshot, plus `git describe` metadata
// captured at configure time and the box fingerprint (cores, SIMD
// backend, compiler, build type) — enough to diff two runs of the same
// bench across commits (see tools/pfairstat.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace pfair::bench {

/// One timed case inside a bench (google-benchmark style).
struct BenchCase {
  std::string name;
  double ns_per_op = 0.0;
  std::int64_t iterations = 0;
};

/// Handed to the bench body: a per-run metrics registry (wire it into
/// SfqOptions/DvqOptions::metrics) plus named scalar results for the
/// report.
class BenchContext {
 public:
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Records a named scalar (utilization, tardiness bound, ...) for the
  /// report's "values" object.  Last write per name wins.
  void value(const std::string& name, double v);

  void add_case(BenchCase c) { cases_.push_back(std::move(c)); }

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& values()
      const {
    return values_;
  }
  [[nodiscard]] const std::vector<BenchCase>& cases() const { return cases_; }

  /// True when the harness runs this repetition under --profile; benches
  /// can key extra self-measurement off it (e.g. the scaling bench's
  /// profiler-overhead assertion).
  [[nodiscard]] bool profiling() const { return profiling_; }
  void set_profiling(bool p) { profiling_ = p; }

 private:
  MetricsRegistry metrics_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<BenchCase> cases_;
  bool profiling_ = false;
};

/// Everything the report serializer needs about one finished run.
struct BenchReport {
  std::string bench;            ///< name without the bench_ prefix
  int exit_code = 0;            ///< from the final repetition
  std::vector<double> wall_ms;  ///< one entry per repetition
  const BenchContext* ctx = nullptr;  ///< final repetition's context
  bool profiled = false;              ///< ran under --profile
  prof::ProfileSnapshot profile;      ///< final repetition's spans
};

/// Serializes a report in the pfair-bench-v1 schema.
[[nodiscard]] std::string bench_report_json(const BenchReport& report);

/// Scans argv for `--json` / `--json=PATH`, removing it.  Returns the
/// output path ("" when the flag is absent); `name` supplies the
/// BENCH_<name>.json default.
[[nodiscard]] std::string extract_json_flag(int& argc, char** argv,
                                            const std::string& name);

/// The uniform main: parses --json/--repeat, times `fn` over the
/// repetitions, writes the report, and returns `fn`'s exit code.
int bench_main(int argc, char** argv, const char* name,
               int (*fn)(BenchContext&));

}  // namespace pfair::bench

#define PFAIR_BENCH_MAIN(name, fn)                        \
  int main(int argc, char** argv) {                       \
    return pfair::bench::bench_main(argc, argv, name, fn); \
  }
