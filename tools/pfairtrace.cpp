// pfairtrace — offline tooling over pfairsim trace and metrics output.
//
//   pfairtrace validate (--tasks=FILE | --demo=NAME) TRACE.jsonl
//       Replays a `pfairsim --trace` JSONL stream through the online
//       invariant auditor (obs/audit.hpp).  Exit 0 and "clean" when no
//       invariant is violated; exit 1 and one line per finding otherwise.
//
//   pfairtrace stats [--metrics=PATH] [--trace=PATH]
//       Renders a `pfairsim --metrics` snapshot (counters, gauges and
//       log2-bucket histograms as ASCII bars) and/or summarizes a trace:
//       events per kind, the deadline-outcome tardiness timeline per
//       task.
//
//   pfairtrace diff A.jsonl B.jsonl
//       First divergence between two trace streams (exit 1 if they
//       diverge) — for pinning down where two runs stopped agreeing.
//
//   pfairtrace chrome (--tasks=FILE | --demo=NAME) TRACE.jsonl [--out=F]
//       Reconstructs the schedule from the trace's placement events and
//       wraps it as Chrome trace-event JSON (open in Perfetto via
//       "Open legacy trace").
//
// Task files use the format of src/io/parse.hpp; --demo accepts the
// paper-figure names (fig1a, fig1b, fig1c, fig2, fig3, fig6).
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "pfair/pfair.hpp"

namespace {

using namespace pfair;

[[noreturn]] void usage(const std::string& err) {
  if (!err.empty()) std::cerr << "pfairtrace: " << err << "\n";
  std::cerr
      << "usage: pfairtrace validate (--tasks=FILE | --demo=NAME) TRACE\n"
         "       pfairtrace stats [--metrics=PATH] [--trace=PATH]\n"
         "       pfairtrace diff A.jsonl B.jsonl\n"
         "       pfairtrace chrome (--tasks=FILE | --demo=NAME) TRACE "
         "[--out=FILE]\n"
         "demo names: "
      << figure_scenario_names() << "\n";
  std::exit(2);
}

TaskSystem load_system(const std::string& tasks_path,
                       const std::string& demo_name) {
  if (!demo_name.empty()) {
    auto sc = figure_scenario_by_name(demo_name);
    if (!sc.has_value()) {
      usage("unknown demo '" + demo_name + "' (have " +
            figure_scenario_names() + ")");
    }
    return std::move(sc->system);
  }
  if (tasks_path.empty()) usage("need --tasks=FILE or --demo=NAME");
  std::ifstream f(tasks_path);
  if (!f.good()) usage("cannot open " + tasks_path);
  return parse_task_file(f).build();
}

std::vector<TraceEvent> load_trace(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) usage("cannot open " + path);
  return read_trace_jsonl(f);
}

int cmd_validate(const TaskSystem& sys, const std::string& trace_path) {
  const std::vector<TraceEvent> events = load_trace(trace_path);
  InvariantAuditor auditor(sys);
  for (const TraceEvent& e : events) auditor.on_event(e);
  if (auditor.clean()) {
    std::cout << "validate: clean (" << events.size() << " events, "
              << auditor.model() << " model)\n";
    return 0;
  }
  std::cout << "validate: " << auditor.total_findings() << " finding(s) in "
            << events.size() << " events (" << auditor.model()
            << " model):\n";
  for (const AuditFinding& f : auditor.findings()) {
    std::cout << "  " << f.str() << "\n";
  }
  if (static_cast<std::size_t>(auditor.total_findings()) >
      auditor.findings().size()) {
    std::cout << "  ... ("
              << auditor.total_findings() -
                     static_cast<std::int64_t>(auditor.findings().size())
              << " more)\n";
  }
  return 1;
}

// [2^(b-1), 2^b) for b >= 1; bucket 0 collects x <= 0 (and 0-width).
std::string bucket_label(int b) {
  if (b == 0) return "<=0";
  std::ostringstream os;
  os << (std::int64_t{1} << (b - 1)) << "..";
  if (b >= 63) {
    os << "max";
  } else {
    os << (std::int64_t{1} << b) - 1;
  }
  return os.str();
}

void print_metrics(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) usage("cannot open " + path);
  std::stringstream buf;
  buf << f.rdbuf();
  const JsonValue root = parse_json(buf.str());
  if (const JsonValue* counters = root.find("counters");
      counters != nullptr) {
    std::cout << "counters:\n";
    for (const auto& [name, v] : counters->object) {
      std::cout << "  " << name << " = " << v.integer << "\n";
    }
  }
  if (const JsonValue* gauges = root.find("gauges"); gauges != nullptr) {
    std::cout << "gauges:\n";
    for (const auto& [name, v] : gauges->object) {
      std::cout << "  " << name << " = " << v.integer << "\n";
    }
  }
  const JsonValue* hists = root.find("histograms");
  if (hists == nullptr) return;
  std::cout << "histograms:\n";
  for (const auto& [name, h] : hists->object) {
    std::cout << "  " << name << ": count " << h.at("count").integer
              << ", sum " << h.at("sum").integer << ", min "
              << h.at("min").integer << ", max " << h.at("max").integer
              << "\n";
    const JsonValue* buckets = h.find("buckets");
    if (buckets == nullptr) continue;
    std::int64_t largest = 1;
    for (const JsonValue& b : buckets->array) {
      largest = std::max(largest, b.array.at(1).integer);
    }
    for (const JsonValue& b : buckets->array) {
      const int idx = static_cast<int>(b.array.at(0).integer);
      const std::int64_t n = b.array.at(1).integer;
      const auto width = static_cast<std::size_t>(40 * n / largest);
      std::cout << "    " << bucket_label(idx) << ": "
                << std::string(width == 0 ? 1 : width, '#') << " " << n
                << "\n";
    }
  }
}

void print_trace_stats(const std::string& path) {
  const std::vector<TraceEvent> events = load_trace(path);
  std::map<std::string, std::int64_t> per_kind;
  struct TaskTardiness {
    std::int64_t outcomes = 0;
    std::int64_t misses = 0;
    std::int64_t max_ticks = 0;
  };
  std::map<std::int32_t, TaskTardiness> per_task;
  Time first, last;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    ++per_kind[to_string(e.kind)];
    if (i == 0 || e.at < first) first = e.at;
    if (i == 0 || last < e.at) last = e.at;
    if (e.kind == TraceEventKind::kDeadlineHit ||
        e.kind == TraceEventKind::kDeadlineMiss) {
      TaskTardiness& t = per_task[e.subject.task];
      ++t.outcomes;
      if (e.kind == TraceEventKind::kDeadlineMiss) ++t.misses;
      t.max_ticks = std::max(t.max_ticks, e.detail);
    }
  }
  std::cout << "trace: " << events.size() << " events over [" << first
            << ", " << last << "]\n";
  std::cout << "events per kind:\n";
  for (const auto& [kind, n] : per_kind) {
    std::cout << "  " << kind << " = " << n << "\n";
  }
  if (per_task.empty()) return;
  std::cout << "deadline outcomes per task (tardiness in slots):\n";
  for (const auto& [task, t] : per_task) {
    std::cout << "  task " << task << ": " << t.outcomes << " outcomes, "
              << t.misses << " miss(es), max tardiness "
              << Time::ticks(t.max_ticks) << "\n";
  }
}

int cmd_diff(const std::string& a_path, const std::string& b_path) {
  const std::vector<TraceEvent> a = load_trace(a_path);
  const std::vector<TraceEvent> b = load_trace(b_path);
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string ja = trace_event_json(a[i]);
    const std::string jb = trace_event_json(b[i]);
    if (ja != jb) {
      std::cout << "diverge at event " << i << ":\n  a: " << ja
                << "\n  b: " << jb << "\n";
      return 1;
    }
  }
  if (a.size() != b.size()) {
    std::cout << "common prefix of " << n << " events, then " << a_path
              << " has " << a.size() << " and " << b_path << " has "
              << b.size() << "\n";
    return 1;
  }
  std::cout << "identical (" << n << " events)\n";
  return 0;
}

int cmd_chrome(const TaskSystem& sys, const std::string& trace_path,
               const std::string& out_path) {
  const std::vector<TraceEvent> events = load_trace(trace_path);
  // Model inference mirrors the auditor: slot boundaries mean SFQ.
  bool dvq = false;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kSlotBegin) break;
    if (e.kind == TraceEventKind::kEventBegin) {
      dvq = true;
      break;
    }
  }
  std::string json;
  if (dvq) {
    DvqSchedule sched(sys);
    for (const TraceEvent& e : events) {
      if (e.kind != TraceEventKind::kPlace) continue;
      sched.place(e.subject, e.at, Time::ticks(e.detail), e.proc);
    }
    json = export_chrome_trace(sys, sched, events);
  } else {
    SlotSchedule sched(sys);
    for (const TraceEvent& e : events) {
      if (e.kind != TraceEventKind::kPlace) continue;
      sched.place(e.subject, e.at.slot_floor(), e.proc);
    }
    json = export_chrome_trace(sys, sched, events);
  }
  if (out_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream f(out_path);
    if (!f.good()) usage("cannot open " + out_path);
    f << json;
    std::cout << "chrome trace written to " << out_path << "\n";
  }
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) usage("no subcommand");
  const std::string cmd = argv[1];
  std::string tasks_path, demo_name, metrics_path, trace_flag, out_path;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tasks=", 0) == 0) {
      tasks_path = arg.substr(8);
    } else if (arg.rfind("--demo=", 0) == 0) {
      demo_name = arg.substr(7);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_flag = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--help" || arg == "-h") {
      usage("");
    } else if (!arg.empty() && arg[0] == '-') {
      usage("unknown option '" + arg + "'");
    } else {
      positional.push_back(arg);
    }
  }

  if (cmd == "validate") {
    if (positional.size() != 1) usage("validate needs exactly one TRACE");
    const TaskSystem sys = load_system(tasks_path, demo_name);
    return cmd_validate(sys, positional[0]);
  }
  if (cmd == "stats") {
    if (metrics_path.empty() && trace_flag.empty() && positional.size() == 1) {
      metrics_path = positional[0];  // bare arg: treat as metrics JSON
      positional.clear();
    }
    if (!positional.empty()) usage("stats takes --metrics/--trace only");
    if (metrics_path.empty() && trace_flag.empty()) {
      usage("stats needs --metrics=PATH and/or --trace=PATH");
    }
    if (!metrics_path.empty()) print_metrics(metrics_path);
    if (!trace_flag.empty()) print_trace_stats(trace_flag);
    return 0;
  }
  if (cmd == "diff") {
    if (positional.size() != 2) usage("diff needs exactly two traces");
    return cmd_diff(positional[0], positional[1]);
  }
  if (cmd == "chrome") {
    if (positional.size() != 1) usage("chrome needs exactly one TRACE");
    const TaskSystem sys = load_system(tasks_path, demo_name);
    return cmd_chrome(sys, positional[0], out_path);
  }
  usage("unknown subcommand '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const pfair::InputError& e) {
    std::cerr << "pfairtrace: " << e.what() << "\n";
    return 2;
  } catch (const pfair::ContractViolation& e) {
    std::cerr << "pfairtrace: " << e.what() << "\n";
    return 2;
  }
}
