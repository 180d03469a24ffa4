// pfairsim — command-line Pfair scheduling simulator.
//
//   pfairsim [options] <taskfile>
//   pfairsim --demo            # run the paper's Fig. 6 system
//   pfairsim --demo=fig2       # any figure: fig1a/fig1b/fig1c/fig2/fig3/fig6
//
// Options:
//   --policy=pd2|pd|pf|epdf|broken  priority policy      (default pd2;
//                              "broken" inverts the PD2 tie-breaks — a
//                              deliberately faulty policy for exercising
//                              the auditor)
//   --model=sfq|dvq|stag       quantum model             (default sfq)
//   --yield=full               every subtask runs a full quantum
//   --yield=fixed:<num>/<den>  every subtask uses num/den of its quantum
//   --yield=bern:<num>/<den>   that fraction of subtasks yields early
//   --seed=<n>                 RNG seed for bern yields  (default 1)
//   --csv=<path>               export the schedule as CSV
//   --trace=<path>             structured scheduler trace, JSONL
//                              (one event per line; see obs/trace.hpp)
//   --chrome-trace=<path>      Chrome trace-event JSON (placements as
//                              complete events, decisions as instants;
//                              open with Perfetto "legacy trace")
//   --metrics=<path>           per-run metrics snapshot as JSON
//   --prom=<path>              same snapshot in Prometheus text format
//                              (exposition 0.0.4; see io/prometheus.hpp)
//   --svg=<path>               export the schedule as an SVG figure
//   --profile                  run under the self-profiler and print a
//                              per-phase time breakdown (obs/prof.hpp);
//                              with --chrome-trace the spans land in the
//                              trace as a second "profiler" process
//   --audit                    run the online invariant auditor alongside
//                              the scheduler (obs/audit.hpp); findings are
//                              printed and force a nonzero exit
//   --capture=<path>           with --audit: on the first finding, write a
//                              shrunk replayable pfair-capture-v1 bundle
//   --fast-forward             detect the steady-state cycle and skip
//                              whole hyperperiods instead of simulating
//                              them (sfq and dvq; exact — the result is
//                              bit-identical to the full run).  Prints
//                              the detected prefix/cycle split.
//   --quiet                    suppress the rendered schedule
//
// --trace/--metrics/--prom/--chrome-trace/--audit cover sfq and dvq;
// the staggered model (the DVQ event loop on a boundary grid) is not
// observable.
// Every observed run stays on the simulators' fast path.  --trace and
// --chrome-trace ask for every event kind, so their streams carry each
// decision's canonical explanation (obs/trace.hpp), O(M) events a
// decision; --metrics and an --audit-only sink get no explanation.
// Under --fast-forward the sfq trace/audit sinks are fed by replaying
// the decision stream of the compressed schedule (--metrics/--prom
// still need a live run and are ignored); the dvq fast-forward path has
// no replay, so observability flags are ignored there.
//
// Live sfq/dvq runs also print the scheduler-quality counters
// (preemptions, migrations, idle capacity, context switches), recounted
// from the finished schedule (analysis/recount.hpp); a truncated run has
// none.
//
// The task file format is documented in src/io/parse.hpp.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "pfair/pfair.hpp"

namespace {

using namespace pfair;

struct CliOptions {
  Policy policy = Policy::kPd2;
  enum class Model { kSfq, kDvq, kStaggered } model = Model::kSfq;
  std::string yield_spec = "full";
  std::uint64_t seed = 1;
  std::string csv_path;
  std::string trace_path;
  std::string chrome_path;
  std::string metrics_path;
  std::string prom_path;
  std::string svg_path;
  std::string capture_path;
  bool audit = false;
  bool fast_forward = false;
  bool profile = false;
  bool quiet = false;
  bool demo = false;
  std::string demo_name = "fig6";
  std::string file;
};

[[noreturn]] void usage(const std::string& err) {
  if (!err.empty()) std::cerr << "pfairsim: " << err << "\n";
  std::cerr << "usage: pfairsim [--policy=pd2|pd|pf|epdf|broken] "
               "[--model=sfq|dvq|stag]\n"
               "                [--yield=full|fixed:n/d|bern:n/d] "
               "[--seed=N] [--csv=PATH]\n"
               "                [--trace=PATH] [--chrome-trace=PATH] "
               "[--metrics=PATH]\n"
               "                [--prom=PATH] [--svg=PATH] [--audit] "
               "[--capture=PATH]\n"
               "                [--fast-forward] [--profile] [--quiet] "
               "(<taskfile> | --demo[=NAME])\n"
               "demo names: " << figure_scenario_names() << "\n";
  std::exit(2);
}

std::pair<std::int64_t, std::int64_t> parse_frac(const std::string& s) {
  const auto slash = s.find('/');
  if (slash == std::string::npos) usage("bad fraction '" + s + "'");
  try {
    const std::int64_t n = std::stoll(s.substr(0, slash));
    const std::int64_t d = std::stoll(s.substr(slash + 1));
    if (n < 0 || d <= 0 || n > d) usage("fraction out of range: " + s);
    return {n, d};
  } catch (...) {
    usage("bad fraction '" + s + "'");
  }
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--policy=", 0) == 0) {
      const std::string v = value("--policy=");
      const auto p = policy_from_string(v);
      if (!p.has_value()) usage("unknown policy '" + v + "'");
      o.policy = *p;
    } else if (arg.rfind("--model=", 0) == 0) {
      const std::string v = value("--model=");
      if (v == "sfq") {
        o.model = CliOptions::Model::kSfq;
      } else if (v == "dvq") {
        o.model = CliOptions::Model::kDvq;
      } else if (v == "stag") {
        o.model = CliOptions::Model::kStaggered;
      } else {
        usage("unknown model '" + v + "'");
      }
    } else if (arg.rfind("--yield=", 0) == 0) {
      o.yield_spec = value("--yield=");
    } else if (arg.rfind("--seed=", 0) == 0) {
      o.seed = std::strtoull(value("--seed=").c_str(), nullptr, 10);
    } else if (arg.rfind("--csv=", 0) == 0) {
      o.csv_path = value("--csv=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      o.trace_path = value("--trace=");
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      o.chrome_path = value("--chrome-trace=");
    } else if (arg.rfind("--metrics=", 0) == 0) {
      o.metrics_path = value("--metrics=");
    } else if (arg.rfind("--prom=", 0) == 0) {
      o.prom_path = value("--prom=");
    } else if (arg.rfind("--svg=", 0) == 0) {
      o.svg_path = value("--svg=");
    } else if (arg.rfind("--capture=", 0) == 0) {
      o.capture_path = value("--capture=");
      o.audit = true;
    } else if (arg == "--audit") {
      o.audit = true;
    } else if (arg == "--fast-forward") {
      o.fast_forward = true;
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else if (arg == "--demo") {
      o.demo = true;
    } else if (arg.rfind("--demo=", 0) == 0) {
      o.demo = true;
      o.demo_name = value("--demo=");
    } else if (arg == "--help" || arg == "-h") {
      usage("");
    } else if (!arg.empty() && arg[0] == '-') {
      usage("unknown option '" + arg + "'");
    } else if (o.file.empty()) {
      o.file = arg;
    } else {
      usage("more than one task file given");
    }
  }
  if (o.file.empty() && !o.demo) usage("no task file");
  return o;
}

std::unique_ptr<YieldModel> make_yields(const CliOptions& o) {
  if (o.yield_spec == "full") return std::make_unique<FullQuantumYield>();
  if (o.yield_spec.rfind("fixed:", 0) == 0) {
    const auto [n, d] = parse_frac(o.yield_spec.substr(6));
    if (n == 0) usage("fixed yield fraction must be > 0");
    return std::make_unique<FixedYield>(kQuantum -
                                        Time::slots_frac(0, n, d));
  }
  if (o.yield_spec.rfind("bern:", 0) == 0) {
    const auto [n, d] = parse_frac(o.yield_spec.substr(5));
    return std::make_unique<BernoulliYield>(
        o.seed, n, d, Time::ticks(kTicksPerSlot / 4), kQuantum - kTick);
  }
  usage("unknown yield spec '" + o.yield_spec + "'");
}

// Serializes an arbitrary yield model for a capture bundle.  The common
// CLI specs map to their exact kinds; anything else (e.g. a figure's
// scripted yields) is enumerated subtask by subtask — finite and exact.
CaptureBundle::YieldSpec yield_spec_for_capture(const CliOptions& o,
                                                const TaskSystem& sys,
                                                const YieldModel& yields) {
  CaptureBundle::YieldSpec spec;
  if (o.yield_spec == "full") return spec;  // kind defaults to "full"
  if (o.yield_spec.rfind("fixed:", 0) == 0) {
    const auto [n, d] = parse_frac(o.yield_spec.substr(6));
    spec.kind = "fixed";
    spec.delta_ticks = (kQuantum - Time::slots_frac(0, n, d)).raw_ticks();
    return spec;
  }
  if (o.yield_spec.rfind("bern:", 0) == 0) {
    const auto [n, d] = parse_frac(o.yield_spec.substr(5));
    spec.kind = "bern";
    spec.seed = o.seed;
    spec.num = n;
    spec.den = d;
    spec.min_ticks = kTicksPerSlot / 4;
    spec.max_ticks = (kQuantum - kTick).raw_ticks();
    return spec;
  }
  spec.kind = "scripted";
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const Time c = yields.cost(sys, ref);
      if (c != kQuantum) spec.costs.push_back({k, s, c.raw_ticks()});
    }
  }
  return spec;
}

void print_cycle_stats(const CycleStats& st) {
  if (st.engaged) {
    std::cout << "fast-forward: prefix " << st.prefix_slots << " + cycle "
              << st.cycle_slots << " slots x " << st.cycles_skipped
              << " skipped (" << st.slots_skipped << " slots); "
              << st.sim_slots << " slots simulated\n";
  } else {
    std::cout << "fast-forward: did not engage; full simulation\n";
  }
}

int run(const CliOptions& o) {
  // Calibrate the profiling clock before the measured window opens, so
  // the one-time steady_clock comparison is not attributed to a phase
  // (or charged against the wall time the breakdown is judged by).
  prof::Profiler profiler;
  std::optional<prof::ProfScope> prof_scope;
  if (o.profile) {
    (void)prof::ns_per_tick();
    prof_scope.emplace(&profiler);
  }
  const auto wall0 = std::chrono::steady_clock::now();

  std::optional<TaskSystem> sys;
  std::shared_ptr<ScriptedYield> demo_yields;
  {
    PFAIR_PROF_SPAN(kParse);
    if (o.demo) {
      auto scenario = figure_scenario_by_name(o.demo_name);
      if (!scenario.has_value()) {
        usage("unknown demo '" + o.demo_name + "' (have " +
              figure_scenario_names() + ")");
      }
      sys.emplace(std::move(scenario->system));
      demo_yields = std::move(scenario->yields);
    } else {
      std::ifstream f(o.file);
      if (!f.good()) {
        std::cerr << "pfairsim: cannot open " << o.file << "\n";
        return 2;
      }
      sys.emplace(parse_task_file(f).build());
    }
  }

  {
    PFAIR_PROF_SPAN(kRender);
    std::cout << "system: " << sys->summary() << "\n";
    std::cout << "policy: " << to_string(o.policy) << ", feasible: "
              << std::boolalpha << sys->feasible() << "\n\n";
  }

  // A figure's scripted yields drive the run unless --yield overrides.
  std::unique_ptr<YieldModel> cli_yields;
  const YieldModel* yields = nullptr;
  if (demo_yields != nullptr && o.yield_spec == "full") {
    yields = demo_yields.get();
  } else {
    cli_yields = make_yields(o);
    yields = cli_yields.get();
  }

  // Observability plumbing: --trace streams JSONL, --chrome-trace keeps
  // a bounded ring of events for the decision instants, --metrics fills
  // a registry, --audit runs the invariant auditor inline (and --capture
  // additionally records a replayable counterexample bundle).  The
  // staggered model's grid-mode simulator refuses all of them.
  const bool stag = o.model == CliOptions::Model::kStaggered;
  const bool dvq_ff = o.fast_forward && o.model == CliOptions::Model::kDvq;
  const bool wants_obs = !o.trace_path.empty() || !o.chrome_path.empty() ||
                         !o.metrics_path.empty() || !o.prom_path.empty() ||
                         o.audit;
  if (stag && wants_obs) {
    std::cerr << "pfairsim: warning: --trace/--chrome-trace/--metrics/"
                 "--audit are not supported for --model=stag; ignoring\n";
  }
  if (stag && o.fast_forward) {
    std::cerr << "pfairsim: warning: --fast-forward is not supported for "
                 "--model=stag; ignoring\n";
  }
  if (dvq_ff && wants_obs) {
    std::cerr << "pfairsim: warning: the dvq fast-forward path has no "
                 "decision replay; ignoring --trace/--chrome-trace/"
                 "--metrics/--audit\n";
  }
  if (o.fast_forward && o.model == CliOptions::Model::kSfq &&
      (!o.metrics_path.empty() || !o.prom_path.empty())) {
    std::cerr << "pfairsim: warning: --metrics/--prom need a live "
                 "observed run; ignoring them under --fast-forward\n";
  }
  // Observability sinks are built for live sfq/dvq runs and for the sfq
  // fast-forward path (fed by decision replay).  --metrics/--prom count
  // scheduler internals a replay cannot reconstruct, so they are
  // live-only; the same goes for the quality counters.
  const bool obs = !stag && !dvq_ff;
  MetricsRegistry reg;
  MetricsRegistry* metrics =
      obs && !o.fast_forward &&
              (!o.metrics_path.empty() || !o.prom_path.empty())
          ? &reg
          : nullptr;
  const bool want_quality = obs && !o.fast_forward;
  QualityCounters qual;
  // Prints the counters the run filled from the recount of its schedule.
  const auto print_quality = [&](const auto& sched) {
    if (!want_quality) return;
    PFAIR_PROF_SPAN(kRender);
    std::cout << "quality: " << quality_to_string(qual);
    if (!sched.complete()) std::cout << " (not counted: incomplete schedule)";
    std::cout << "\n";
  };
  std::ofstream trace_f;
  std::unique_ptr<JsonlSink> jsonl;
  std::unique_ptr<RingBufferSink> ring;
  std::unique_ptr<InvariantAuditor> auditor;
  std::unique_ptr<CounterexampleRecorder> recorder;
  std::vector<std::unique_ptr<TeeSink>> tees;
  TraceSink* sink = nullptr;
  {
    // Sink setup is real work — the chrome-trace ring alone zero-fills
    // megabytes — so it gets a construction span of its own.
    PFAIR_PROF_SPAN(kConstruction);
    if (obs && !o.trace_path.empty()) {
      trace_f.open(o.trace_path);
      if (!trace_f) {
        std::cerr << "pfairsim: cannot open " << o.trace_path << "\n";
        return 2;
      }
      jsonl = std::make_unique<JsonlSink>(trace_f);
    }
    if (obs && !o.chrome_path.empty()) {
      // With --metrics the ring also publishes its drop count.
      ring = metrics != nullptr
                 ? std::make_unique<RingBufferSink>(std::size_t{1} << 18,
                                                    reg)
                 : std::make_unique<RingBufferSink>(std::size_t{1} << 18);
    }
    if (obs && o.audit) {
      auditor = std::make_unique<InvariantAuditor>(*sys);
      if (metrics != nullptr) auditor->attach_metrics(reg);
      if (!o.capture_path.empty()) {
        const bool dvq = o.model == CliOptions::Model::kDvq;
        CaptureBundle proto = CaptureBundle::prototype(
            *sys, dvq ? "dvq" : "sfq", o.policy, /*horizon_limit=*/0,
            o.seed);
        if (dvq) proto.yields = yield_spec_for_capture(o, *sys, *yields);
        recorder =
            std::make_unique<CounterexampleRecorder>(std::move(proto));
        auditor->set_finding_callback(
            [&r = *recorder](const AuditFinding& f) { r.record(f); });
      }
    }

    // Fold the active sinks into one tee chain.  The recorder sits
    // first so the triggering event is already in its prefix when the
    // auditor's finding callback fires.
    std::vector<TraceSink*> sinks;
    if (recorder != nullptr) sinks.push_back(recorder.get());
    if (auditor != nullptr) sinks.push_back(auditor.get());
    if (jsonl != nullptr) sinks.push_back(jsonl.get());
    if (ring != nullptr) sinks.push_back(ring.get());
    for (TraceSink* s : sinks) {
      if (sink == nullptr) {
        sink = s;
      } else {
        tees.push_back(std::make_unique<TeeSink>(sink, s));
        sink = tees.back().get();
      }
    }
  }

  // With --chrome-trace the export also carries the ring's drop count
  // and (under --profile) the profiler spans, on a second process row.
  prof::ProfileSnapshot psnap;
  const auto chrome_extras = [&](const std::vector<TraceEvent>& events) {
    ChromeTraceExtras ex;
    ex.events = events;
    if (ring != nullptr) ex.events_dropped = ring->dropped();
    if (o.profile) {
      psnap = profiler.snapshot();
      ex.profile = &psnap;
    }
    return ex;
  };

  TardinessSummary tard;
  if (o.model == CliOptions::Model::kSfq) {
    SfqOptions so;
    so.policy = o.policy;
    const SlotSchedule sched = [&]() -> SlotSchedule {
      PFAIR_PROF_SPAN(kSimulate);
      if (!o.fast_forward) {
        so.trace = sink;
        so.metrics = metrics;
        so.quality = want_quality ? &qual : nullptr;
        return schedule_sfq(*sys, so);
      }
      // Compressed run first; the trace/audit sinks then see the exact
      // decision stream replayed from the compressed schedule.
      const CycleSchedule cyc = schedule_sfq_cyclic(*sys, so);
      print_cycle_stats(cyc.stats());
      if (sink != nullptr) replay_decisions(*sys, cyc, *sink);
      return cyc.materialize();
    }();
    if (!o.quiet) {
      PFAIR_PROF_SPAN(kRender);
      std::cout << render_slot_schedule(*sys, sched) << "\n\n";
    }
    {
      PFAIR_PROF_SPAN(kAnalysis);
      const ValidityReport rep = check_slot_schedule(*sys, sched);
      std::cout << "validity: " << rep.str() << "\n";
      tard = measure_tardiness(*sys, sched);
      if (metrics != nullptr) record_tardiness_metrics(*sys, sched, reg);
    }
    print_quality(sched);
    if (!o.csv_path.empty()) {
      PFAIR_PROF_SPAN(kExport);
      export_slot_schedule(*sys, sched).write_file(o.csv_path);
    }
    if (!o.chrome_path.empty()) {
      PFAIR_PROF_SPAN(kExport);
      std::ofstream f(o.chrome_path);
      const std::vector<TraceEvent> events =
          ring != nullptr ? ring->snapshot() : std::vector<TraceEvent>{};
      f << export_chrome_trace(*sys, sched, chrome_extras(events));
    }
    if (!o.svg_path.empty()) {
      PFAIR_PROF_SPAN(kRender);
      std::ofstream f(o.svg_path);
      f << render_slot_schedule_svg(*sys, sched);
    }
  } else {
    DvqSchedule sched = [&]() -> DvqSchedule {
      PFAIR_PROF_SPAN(kSimulate);
      if (o.model == CliOptions::Model::kDvq) {
        DvqOptions dopts;
        dopts.policy = o.policy;
        if (o.fast_forward) {
          const DvqCycleSchedule cyc =
              schedule_dvq_cyclic(*sys, *yields, dopts);
          print_cycle_stats(cyc.stats());
          return cyc.materialize();
        }
        dopts.trace = sink;
        dopts.metrics = metrics;
        dopts.quality = want_quality ? &qual : nullptr;
        return schedule_dvq(*sys, *yields, dopts);
      }
      StaggeredOptions sopts;
      sopts.policy = o.policy;
      return schedule_staggered(*sys, *yields, sopts);
    }();
    if (!o.quiet) {
      PFAIR_PROF_SPAN(kRender);
      std::cout << render_dvq_schedule(*sys, sched) << "\n\n";
    }
    {
      PFAIR_PROF_SPAN(kAnalysis);
      std::cout << "validity (one-quantum allowance): "
                << check_dvq_schedule(*sys, sched, kQuantum).str() << "\n";
      tard = measure_tardiness(*sys, sched);
      if (metrics != nullptr) record_tardiness_metrics(*sys, sched, reg);
    }
    print_quality(sched);
    if (!o.csv_path.empty()) {
      PFAIR_PROF_SPAN(kExport);
      export_dvq_schedule(*sys, sched).write_file(o.csv_path);
    }
    if (!o.chrome_path.empty()) {
      PFAIR_PROF_SPAN(kExport);
      std::ofstream f(o.chrome_path);
      const std::vector<TraceEvent> events =
          ring != nullptr ? ring->snapshot() : std::vector<TraceEvent>{};
      f << export_chrome_trace(*sys, sched, chrome_extras(events));
    }
    if (!o.svg_path.empty()) {
      PFAIR_PROF_SPAN(kRender);
      std::ofstream f(o.svg_path);
      f << render_dvq_schedule_svg(*sys, sched);
    }
  }
  if (jsonl != nullptr) {
    PFAIR_PROF_SPAN(kRender);
    std::cout << "trace: " << jsonl->lines() << " events -> " << o.trace_path
              << "\n";
  }
  if (metrics != nullptr) {
    PFAIR_PROF_SPAN(kExport);
    // One exposition carries everything: scheduler internals, the
    // quality counters, and (under --profile) the per-phase profile.
    if (want_quality) publish_quality(qual, reg);
    if (o.profile) prof::publish_profile(profiler.snapshot(), reg);
    if (!o.metrics_path.empty()) {
      std::ofstream f(o.metrics_path);
      f << metrics_to_json(reg.snapshot(), 2) << "\n";
      std::cout << "metrics written to " << o.metrics_path << "\n";
    }
    if (!o.prom_path.empty()) {
      std::ofstream f(o.prom_path);
      f << metrics_to_prometheus(reg.snapshot());
      std::cout << "prometheus metrics written to " << o.prom_path << "\n";
    }
  }
  bool audit_failed = false;
  if (auditor != nullptr) {
    PFAIR_PROF_SPAN(kRender);
    if (auditor->clean()) {
      std::cout << "audit: clean (" << auditor->model() << " model)\n";
    } else {
      audit_failed = true;
      std::cout << "audit: " << auditor->total_findings()
                << " finding(s):\n";
      std::size_t shown = 0;
      for (const AuditFinding& f : auditor->findings()) {
        if (++shown > 8) {
          std::cout << "  ...\n";
          break;
        }
        std::cout << "  " << f.str() << "\n";
      }
      if (recorder != nullptr && recorder->captured()) {
        const CaptureBundle shrunk = shrink_bundle(recorder->bundle());
        std::ofstream f(o.capture_path);
        if (!f) {
          std::cerr << "pfairsim: cannot open " << o.capture_path << "\n";
          return 2;
        }
        f << capture_to_json(shrunk);
        std::cout << "counterexample (" << shrunk.tasks.size()
                  << " task(s)) written to " << o.capture_path << "\n";
      }
    }
  }

  {
    PFAIR_PROF_SPAN(kRender);
    std::cout << "tardiness: max " << tard.max_quanta() << " quanta, "
              << tard.late_subtasks << "/" << tard.total_subtasks
              << " subtasks late";
    if (tard.unscheduled > 0) {
      std::cout << ", " << tard.unscheduled << " UNSCHEDULED";
    }
    std::cout << "\n";
    if (!o.csv_path.empty()) {
      std::cout << "schedule exported to " << o.csv_path << "\n";
    }
  }

  if (o.profile) {
    // Wall time is clocked before snapshotting so the breakdown is
    // judged against the work it actually covered.
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    prof_scope.reset();
    const prof::ProfileSnapshot snap = profiler.snapshot();
    const double attr_ms = snap.attributed_ns() / 1e6;
    char line[160];
    std::snprintf(line, sizeof line,
                  "\nprofile (%s): wall %.3f ms, attributed %.3f ms "
                  "(%.1f%%)\n",
                  snap.clock.c_str(), wall_ms, attr_ms,
                  wall_ms > 0 ? 100.0 * attr_ms / wall_ms : 0.0);
    std::cout << line << snap.table();
  }

  return tard.none_late() && !audit_failed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_cli(argc, argv));
  } catch (const pfair::InputError& e) {
    std::cerr << "pfairsim: " << e.what() << "\n";
    return 2;
  } catch (const pfair::ContractViolation& e) {
    std::cerr << "pfairsim: " << e.what() << "\n";
    return 2;
  }
}
