#include "bench_main.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>

#include "core/simd.hpp"
#include "io/json.hpp"
#include "io/prometheus.hpp"

#ifndef PFAIR_GIT_DESCRIBE
#define PFAIR_GIT_DESCRIBE "unknown"
#endif
#ifndef PFAIR_BUILD_TYPE
#define PFAIR_BUILD_TYPE "unknown"
#endif

namespace pfair::bench {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

struct WallStats {
  double min = 0.0, median = 0.0, max = 0.0;
};

WallStats wall_stats(std::vector<double> ms) {
  WallStats w;
  if (ms.empty()) return w;
  std::sort(ms.begin(), ms.end());
  w.min = ms.front();
  w.max = ms.back();
  const std::size_t n = ms.size();
  w.median = n % 2 == 1 ? ms[n / 2] : (ms[n / 2 - 1] + ms[n / 2]) / 2.0;
  return w;
}

std::string compiler_name() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// The machine a report was measured on, as a JSON object: core count,
/// SIMD backend, compiler and CMake build type.  scripts/perf_guard.py
/// prints it once per gate run, so every timing names its box.
std::string box_fingerprint_json() {
  std::ostringstream os;
  os << R"({"cores": )" << std::thread::hardware_concurrency()
     << R"(, "simd": ")" << simd::isa_name() << R"(", "compiler": ")"
     << json_escape(compiler_name()) << R"(", "build_type": ")"
     << json_escape(PFAIR_BUILD_TYPE) << "\"}";
  return os.str();
}

}  // namespace

void BenchContext::value(const std::string& name, double v) {
  for (auto& [k, old] : values_) {
    if (k == name) {
      old = v;
      return;
    }
  }
  values_.emplace_back(name, v);
}

namespace {

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
std::string bench_report_json(const BenchReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << R"(  "schema": "pfair-bench-v1",)" << "\n";
  os << R"(  "bench": ")" << json_escape(report.bench) << "\",\n";
  os << R"(  "git": ")" << json_escape(PFAIR_GIT_DESCRIBE) << "\",\n";
  os << R"(  "box": )" << box_fingerprint_json() << ",\n";
  os << R"(  "ok": )" << (report.exit_code == 0 ? "true" : "false") << ",\n";
  os << R"(  "exit_code": )" << report.exit_code << ",\n";
  os << R"(  "repetitions": )" << report.wall_ms.size() << ",\n";
  const WallStats w = wall_stats(report.wall_ms);
  os << R"(  "wall_ms": {"min": )" << fmt_double(w.min) << R"(, "median": )"
     << fmt_double(w.median) << R"(, "max": )" << fmt_double(w.max)
     << R"(, "all": [)";
  for (std::size_t i = 0; i < report.wall_ms.size(); ++i) {
    if (i != 0) os << ", ";
    os << fmt_double(report.wall_ms[i]);
  }
  os << "]},\n";
  os << R"(  "values": {)";
  bool first = true;
  if (report.ctx != nullptr) {
    for (const auto& [k, v] : report.ctx->values()) {
      if (!first) os << ", ";
      first = false;
      os << '"' << json_escape(k) << "\": " << fmt_double(v);
    }
  }
  os << "},\n";
  os << R"(  "cases": [)";
  if (report.ctx != nullptr) {
    first = true;
    for (const BenchCase& c : report.ctx->cases()) {
      if (!first) os << ", ";
      first = false;
      os << R"({"name": ")" << json_escape(c.name) << R"(", "ns_per_op": )"
         << fmt_double(c.ns_per_op) << R"(, "iterations": )" << c.iterations
         << "}";
    }
  }
  os << "],\n";
  os << R"(  "profile": )";
  if (report.profiled) {
    os << profile_to_json(report.profile, 2);
  } else {
    os << "null";
  }
  os << ",\n";
  os << R"(  "metrics": )";
  if (report.ctx != nullptr) {
    os << metrics_to_json(report.ctx->metrics().snapshot(), 2);
  } else {
    os << "{}";
  }
  os << "\n}\n";
  return os.str();
}

/// Scans argv for `--json` / `--json=PATH`, removing it.  Returns the
/// output path ("" when the flag is absent); `name` supplies the
/// BENCH_<name>.json default.
std::string extract_json_flag(int& argc, char** argv,
                              const std::string& name) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string_view arg = argv[r];
    if (arg == "--json") {
      path = "BENCH_" + name + ".json";
    } else if (arg.rfind("--json=", 0) == 0) {
      path = std::string(arg.substr(std::strlen("--json=")));
      if (path.empty()) path = "BENCH_" + name + ".json";
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return path;
}

}  // namespace

int bench_main(int argc, char** argv, const char* name,
               int (*fn)(BenchContext&)) {
  const std::string bench_name = name;
  const std::string json_path = extract_json_flag(argc, argv, bench_name);
  std::size_t repeat = 1;
  bool profile = false;
  std::string prom_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::atoll(argv[i] + std::strlen("--repeat="))));
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--prom") {
      prom_path = "BENCH_" + bench_name + ".prom";
    } else if (arg.rfind("--prom=", 0) == 0) {
      prom_path = std::string(arg.substr(std::strlen("--prom=")));
      if (prom_path.empty()) prom_path = "BENCH_" + bench_name + ".prom";
    } else {
      std::cerr << "usage: bench_" << bench_name
                << " [--json[=PATH]] [--prom[=PATH]] [--profile]"
                   " [--repeat=N]\n";
      return 2;
    }
  }

  BenchReport report;
  report.bench = bench_name;
  std::unique_ptr<BenchContext> ctx;
  for (std::size_t rep = 0; rep < repeat; ++rep) {
    // Fresh context per repetition: metrics describe one run, not an
    // accumulation over all of them.  Same for the profiler: the
    // report's profile covers exactly the final repetition.
    auto fresh = std::make_unique<BenchContext>();
    fresh->set_profiling(profile);
    prof::Profiler profiler;
    const auto t0 = std::chrono::steady_clock::now();
    {
      prof::ProfScope scope(profile ? &profiler : nullptr);
      report.exit_code = fn(*fresh);
    }
    const auto t1 = std::chrono::steady_clock::now();
    report.wall_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (profile) {
      report.profiled = true;
      report.profile = profiler.snapshot();
      prof::publish_profile(report.profile, fresh->metrics());
    }
    ctx = std::move(fresh);
  }
  report.ctx = ctx.get();
  if (report.profiled) {
    std::cerr << "bench_" << bench_name << ": profile ("
              << report.profile.clock << ")\n"
              << report.profile.table();
  }

  if (!prom_path.empty() && ctx != nullptr) {
    std::ofstream out(prom_path);
    if (!out) {
      std::cerr << "bench_" << bench_name << ": cannot open " << prom_path
                << " for writing\n";
      return 2;
    }
    out << metrics_to_prometheus(ctx->metrics().snapshot());
    std::cerr << "bench_" << bench_name << ": metrics written to "
              << prom_path << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "bench_" << bench_name << ": cannot open " << json_path
                << " for writing\n";
      return 2;
    }
    out << bench_report_json(report);
    std::cerr << "bench_" << bench_name << ": report written to " << json_path
              << "\n";
  }
  return report.exit_code;
}

}  // namespace pfair::bench
