// pfairstat — compare two profile/metrics dumps and say what moved.
//
//   pfairstat show FILE
//       Renders the per-phase profile and scalar values of one dump.
//
//   pfairstat diff BASE CURRENT [--threshold=PCT] [--fail-above=PCT]
//       Per-phase self-time deltas between two dumps, the attributed
//       total shift, and the phase that moved most — the first place to
//       look when a perf guard trips.  Scalar values (bench `values`,
//       metrics counters/gauges) are diffed too; only moves of at least
//       --threshold percent (default 5) are printed.  With
//       --fail-above=PCT the exit code is 1 when attributed time
//       regressed by more than PCT percent (otherwise always 0 unless
//       the inputs are unreadable).
//
// Accepted input shapes, auto-detected per file:
//   * a pfair-bench-v1 report (bench_scaling --json …): profile from its
//     "profile" section, scalars from "values" and "metrics";
//   * a metrics snapshot (pfairsim --metrics …): profile reconstructed
//     from the prof.<phase>.* counters published by publish_profile;
//   * a bare profile object (the "profile" section on its own).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pfair/pfair.hpp"

namespace {

using namespace pfair;

[[noreturn]] void usage(const std::string& err) {
  if (!err.empty()) std::cerr << "pfairstat: " << err << "\n";
  std::cerr << "usage: pfairstat show FILE\n"
               "       pfairstat diff BASE CURRENT [--threshold=PCT] "
               "[--fail-above=PCT]\n";
  std::exit(2);
}

struct PhaseRow {
  std::int64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Flattened view of one dump: per-phase profile rows (profile order
/// preserved) plus every scalar (bench values, counters, gauges).
struct Dump {
  std::string path;
  bool has_profile = false;
  std::vector<std::pair<std::string, PhaseRow>> phases;
  std::vector<std::pair<std::string, double>> scalars;

  [[nodiscard]] double attributed_ns() const {
    double sum = 0.0;
    for (const auto& [name, row] : phases) sum += row.self_ns;
    return sum;
  }
  [[nodiscard]] const PhaseRow* phase(const std::string& name) const {
    for (const auto& [n, row] : phases) {
      if (n == name) return &row;
    }
    return nullptr;
  }
  [[nodiscard]] const double* scalar(const std::string& name) const {
    for (const auto& [n, v] : scalars) {
      if (n == name) return &v;
    }
    return nullptr;
  }
};

double as_number(const JsonValue& v) {
  return v.is_integer ? static_cast<double>(v.integer) : v.number;
}

void take_profile(const JsonValue& profile, Dump& out) {
  const JsonValue* phases = profile.find("phases");
  if (phases == nullptr || !phases->is(JsonValue::Kind::kObject)) return;
  out.has_profile = true;
  for (const auto& [name, entry] : phases->object) {
    PhaseRow row;
    if (const JsonValue* c = entry.find("count")) {
      row.count = static_cast<std::int64_t>(as_number(*c));
    }
    if (const JsonValue* t = entry.find("total_ns")) {
      row.total_ns = as_number(*t);
    }
    if (const JsonValue* s = entry.find("self_ns")) {
      row.self_ns = as_number(*s);
    }
    out.phases.emplace_back(name, row);
  }
}

/// Reassembles prof.<phase>.{count,total_ns,self_ns} counters into
/// profile rows; every other counter/gauge becomes a scalar.
void take_metrics(const JsonValue& metrics, Dump& out) {
  std::vector<std::pair<std::string, PhaseRow>> prof_rows;
  auto prof_row = [&prof_rows](const std::string& phase) -> PhaseRow& {
    for (auto& [n, row] : prof_rows) {
      if (n == phase) return row;
    }
    return prof_rows.emplace_back(phase, PhaseRow{}).second;
  };
  for (const char* section : {"counters", "gauges"}) {
    const JsonValue* obj = metrics.find(section);
    if (obj == nullptr || !obj->is(JsonValue::Kind::kObject)) continue;
    for (const auto& [name, value] : obj->object) {
      if (name.rfind("prof.", 0) == 0) {
        const std::size_t dot = name.rfind('.');
        const std::string phase = name.substr(5, dot - 5);
        const std::string field = name.substr(dot + 1);
        if (field == "count") {
          prof_row(phase).count = static_cast<std::int64_t>(as_number(value));
          continue;
        }
        if (field == "total_ns") {
          prof_row(phase).total_ns = as_number(value);
          continue;
        }
        if (field == "self_ns") {
          prof_row(phase).self_ns = as_number(value);
          continue;
        }
      }
      out.scalars.emplace_back(name, as_number(value));
    }
  }
  if (!prof_rows.empty() && !out.has_profile) {
    out.has_profile = true;
    out.phases = std::move(prof_rows);
  }
}

void take_report(const JsonValue& report, Dump& out) {
  if (const JsonValue* profile = report.find("profile")) {
    if (profile->is(JsonValue::Kind::kObject)) take_profile(*profile, out);
  }
  if (const JsonValue* values = report.find("values")) {
    if (values->is(JsonValue::Kind::kObject)) {
      for (const auto& [name, value] : values->object) {
        out.scalars.emplace_back(name, as_number(value));
      }
    }
  }
  if (const JsonValue* metrics = report.find("metrics")) {
    if (metrics->is(JsonValue::Kind::kObject)) take_metrics(*metrics, out);
  }
}

Dump load_dump(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "pfairstat: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  Dump out;
  out.path = path;
  const JsonValue doc = parse_json(buf.str());
  if (!doc.is(JsonValue::Kind::kObject)) {
    std::cerr << "pfairstat: " << path << ": not a JSON object\n";
    std::exit(2);
  }
  if (doc.find("phases") != nullptr) {
    take_profile(doc, out);  // bare profile section
    return out;
  }
  if (doc.find("counters") != nullptr || doc.find("gauges") != nullptr) {
    take_metrics(doc, out);  // pfairsim --metrics snapshot
    return out;
  }
  take_report(doc, out);  // pfair-bench-v1 report
  return out;
}

std::string fmt_ms(double ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", ns / 1e6);
  return buf;
}

std::string fmt_pct(double frac) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * frac);
  return buf;
}

std::string fmt_val(double v) {
  char buf[48];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

int cmd_show(const Dump& d) {
  if (d.has_profile) {
    TextTable t;
    t.header({"phase", "count", "total (ms)", "self (ms)"});
    for (const auto& [name, row] : d.phases) {
      t.row({name, std::to_string(row.count), fmt_ms(row.total_ns),
             fmt_ms(row.self_ns)});
    }
    std::cout << d.path << ": profile\n" << t.str();
    std::cout << "attributed: " << fmt_ms(d.attributed_ns()) << " ms\n";
  } else {
    std::cout << d.path << ": no profile section\n";
  }
  if (!d.scalars.empty()) {
    TextTable t;
    t.header({"value", ""});
    for (const auto& [name, value] : d.scalars) {
      t.row({name, fmt_val(value)});
    }
    std::cout << "\n" << t.str();
  }
  return 0;
}

int cmd_diff(const Dump& base, const Dump& cur, double threshold_pct,
             double fail_above_pct) {
  // Union of phase names, base order first so the table stays stable.
  std::vector<std::string> names;
  for (const auto& [name, row] : base.phases) names.push_back(name);
  for (const auto& [name, row] : cur.phases) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }

  double worst_delta = 0.0;
  std::string worst_phase;
  if (!names.empty()) {
    TextTable t;
    t.header({"phase", "base self (ms)", "cur self (ms)", "delta (ms)",
              "delta"});
    for (const std::string& name : names) {
      const PhaseRow* b = base.phase(name);
      const PhaseRow* c = cur.phase(name);
      const double b_ns = b != nullptr ? b->self_ns : 0.0;
      const double c_ns = c != nullptr ? c->self_ns : 0.0;
      const double delta = c_ns - b_ns;
      if (delta > worst_delta) {
        worst_delta = delta;
        worst_phase = name;
      }
      t.row({name, b != nullptr ? fmt_ms(b_ns) : "-",
             c != nullptr ? fmt_ms(c_ns) : "-", fmt_ms(delta),
             b_ns > 0.0 ? fmt_pct(delta / b_ns) : "new"});
    }
    std::cout << "profile: " << base.path << " -> " << cur.path << "\n"
              << t.str();
  } else {
    std::cout << "no profile in either input; scalar diff only\n";
  }

  const double b_attr = base.attributed_ns();
  const double c_attr = cur.attributed_ns();
  double regression = 0.0;
  if (b_attr > 0.0) {
    regression = (c_attr - b_attr) / b_attr;
    std::cout << "attributed: " << fmt_ms(b_attr) << " ms -> "
              << fmt_ms(c_attr) << " ms (" << fmt_pct(regression) << ")\n";
    if (!worst_phase.empty() && c_attr > b_attr) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "largest mover: %s (%+.3f ms, %.0f%% of the shift)\n",
                    worst_phase.c_str(), worst_delta / 1e6,
                    100.0 * worst_delta / (c_attr - b_attr));
      std::cout << buf;
    }
  }

  // Scalars: print moves of at least `threshold_pct`, and every key
  // present on only one side (silently vanished metrics hide bugs).
  std::size_t shown = 0;
  TextTable t;
  t.header({"value", "base", "cur", "delta"});
  for (const auto& [name, b_val] : base.scalars) {
    const double* c_val = cur.scalar(name);
    if (c_val == nullptr) {
      t.row({name, fmt_val(b_val), "-", "removed"});
      ++shown;
      continue;
    }
    const double delta = *c_val - b_val;
    if (delta == 0.0) continue;
    const double rel = b_val != 0.0 ? delta / std::abs(b_val) : 1.0;
    if (std::abs(rel) * 100.0 < threshold_pct) continue;
    t.row({name, fmt_val(b_val), fmt_val(*c_val), fmt_pct(rel)});
    ++shown;
  }
  for (const auto& [name, c_val] : cur.scalars) {
    if (base.scalar(name) == nullptr) {
      t.row({name, "-", fmt_val(c_val), "added"});
      ++shown;
    }
  }
  if (shown > 0) {
    std::cout << "\nvalues moving >= " << fmt_val(threshold_pct) << "%\n"
              << t.str();
  }

  if (fail_above_pct >= 0.0 && regression * 100.0 > fail_above_pct) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "pfairstat: attributed time regressed %+.1f%% "
                  "(budget %.1f%%)\n",
                  100.0 * regression, fail_above_pct);
    std::cerr << buf;
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> pos;
  double threshold_pct = 5.0;
  double fail_above_pct = -1.0;
  std::string cmd;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--threshold=", 0) == 0) {
      threshold_pct = std::stod(a.substr(12));
    } else if (a.rfind("--fail-above=", 0) == 0) {
      fail_above_pct = std::stod(a.substr(13));
    } else if (a.rfind("--", 0) == 0) {
      usage("unknown option '" + a + "'");
    } else if (cmd.empty()) {
      cmd = a;
    } else {
      pos.push_back(a);
    }
  }
  try {
    if (cmd == "show") {
      if (pos.size() != 1) usage("show takes exactly one file");
      return cmd_show(load_dump(pos[0]));
    }
    if (cmd == "diff") {
      if (pos.size() != 2) usage("diff takes exactly two files");
      return cmd_diff(load_dump(pos[0]), load_dump(pos[1]),
                      threshold_pct, fail_above_pct);
    }
  } catch (const std::exception& e) {
    std::cerr << "pfairstat: " << e.what() << "\n";
    return 2;
  }
  usage(cmd.empty() ? "need a command (show | diff)"
                    : "unknown command '" + cmd + "'");
}
