// Experiment X4 — scheduler micro-costs, via google-benchmark: window
// arithmetic, group-deadline computation, priority comparisons, per-slot
// decision cost for every policy, PD^B overhead, DVQ event throughput.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "pfair/pfair.hpp"

#include "bench_main.hpp"

namespace {

using namespace pfair;

TaskSystem make_system(int m, std::int64_t horizon, std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.processors = m;
  cfg.target_util = Rational(m);
  cfg.horizon = horizon;
  cfg.seed = seed;
  return generate_periodic(cfg);
}

/// Attaches per-decision cost to a whole-schedule benchmark: one
/// "decision" is one subtask placement, so ns_per_decision is the
/// wall time divided by placements — comparable across system sizes
/// where raw iteration time is not.  Shown on the console next to the
/// wall time and captured as an extra <name>/ns_per_decision case in
/// the pfair-bench-v1 report.
void report_decisions(benchmark::State& state, std::int64_t per_iter) {
  const auto total =
      static_cast<double>(state.iterations() * per_iter);
  state.SetItemsProcessed(state.iterations() * per_iter);
  state.counters["decisions_per_s"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate);
  state.counters["ns_per_decision"] = benchmark::Counter(
      total, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_WindowMath(benchmark::State& state) {
  const Weight w(8, 11);
  std::int64_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pseudo_release(w, i));
    benchmark::DoNotOptimize(pseudo_deadline(w, i));
    benchmark::DoNotOptimize(b_bit(w, i));
    if (++i > 1000000) i = 1;
  }
}
BENCHMARK(BM_WindowMath);

void BM_GroupDeadline(benchmark::State& state) {
  const Weight w(static_cast<std::int64_t>(state.range(0)),
                 static_cast<std::int64_t>(state.range(0)) + 1);
  std::int64_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group_deadline(w, i));
    if (++i > 10000) i = 1;
  }
}
BENCHMARK(BM_GroupDeadline)->Arg(2)->Arg(11)->Arg(97);

void BM_PriorityCompare(benchmark::State& state) {
  const TaskSystem sys = make_system(4, 24, 5);
  const PriorityOrder order(sys, static_cast<Policy>(state.range(0)));
  std::vector<SubtaskRef> refs;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      refs.push_back(SubtaskRef{k, s});
    }
  }
  std::size_t i = 0, j = refs.size() / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(order.compare(refs[i], refs[j]));
    if (++i == refs.size()) i = 0;
    if (++j == refs.size()) j = 0;
  }
}
BENCHMARK(BM_PriorityCompare)
    ->Arg(static_cast<int>(Policy::kEpdf))
    ->Arg(static_cast<int>(Policy::kPf))
    ->Arg(static_cast<int>(Policy::kPd))
    ->Arg(static_cast<int>(Policy::kPd2));

void BM_SfqSchedule(benchmark::State& state) {
  const auto m = static_cast<int>(state.range(0));
  const TaskSystem sys = make_system(m, 48, 7);
  SfqOptions opts;
  opts.policy = static_cast<Policy>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_sfq(sys, opts));
  }
  report_decisions(state, sys.total_subtasks());
}
BENCHMARK(BM_SfqSchedule)
    ->Args({4, static_cast<int>(Policy::kEpdf)})
    ->Args({4, static_cast<int>(Policy::kPf)})
    ->Args({4, static_cast<int>(Policy::kPd2)})
    ->Args({8, static_cast<int>(Policy::kPd2)})
    ->Args({16, static_cast<int>(Policy::kPd2)});

void BM_PdbSchedule(benchmark::State& state) {
  const TaskSystem sys = make_system(static_cast<int>(state.range(0)), 48, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_pdb(sys));
  }
  report_decisions(state, sys.total_subtasks());
}
BENCHMARK(BM_PdbSchedule)->Arg(4)->Arg(8);

void BM_DvqSchedule(benchmark::State& state) {
  const TaskSystem sys = make_system(static_cast<int>(state.range(0)), 48, 7);
  const BernoulliYield yields(11, 1, 2, Time::ticks(kTicksPerSlot / 2),
                              kQuantum - kTick);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_dvq(sys, yields));
  }
  report_decisions(state, sys.total_subtasks());
}
BENCHMARK(BM_DvqSchedule)->Arg(4)->Arg(8)->Arg(16);

void BM_StaggeredSchedule(benchmark::State& state) {
  const TaskSystem sys = make_system(static_cast<int>(state.range(0)), 48, 7);
  const FullQuantumYield yields;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_staggered(sys, yields));
  }
  report_decisions(state, sys.total_subtasks());
}
BENCHMARK(BM_StaggeredSchedule)->Arg(4)->Arg(8);

void BM_ValidityCheck(benchmark::State& state) {
  const TaskSystem sys = make_system(4, 48, 7);
  const SlotSchedule sched = schedule_sfq(sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_slot_schedule(sys, sched));
  }
}
BENCHMARK(BM_ValidityCheck);

void BM_SbConstruction(benchmark::State& state) {
  const TaskSystem sys = make_system(4, 24, 7);
  const BernoulliYield yields(11, 1, 2, Time::ticks(kTicksPerSlot / 2),
                              kQuantum - kTick);
  const DvqSchedule dvq = schedule_dvq(sys, yields);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_sb(sys, dvq));
  }
}
BENCHMARK(BM_SbConstruction);

/// Console reporter that also captures each per-iteration run as a
/// BenchCase, so --json emits the same pfair-bench-v1 schema as the
/// plain benches.
class CapturingReporter final : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(pfair::bench::BenchContext& ctx)
      : benchmark::ConsoleReporter(::isatty(::fileno(stdout)) != 0
                                       ? OO_ColorTabular
                                       : OO_Tabular),
        ctx_(&ctx) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      pfair::bench::BenchCase c;
      c.name = r.benchmark_name();
      c.iterations = r.iterations;
      c.ns_per_op = r.iterations == 0
                        ? 0.0
                        : r.real_accumulated_time * 1e9 /
                              static_cast<double>(r.iterations);
      ctx_->add_case(std::move(c));
      // Whole-schedule benches also report per-decision cost (see
      // report_decisions); surface it as its own case so the perf
      // guard can track it directly.
      const auto it = r.counters.find("decisions_per_s");
      if (it != r.counters.end() && it->second.value > 0) {
        pfair::bench::BenchCase d;
        d.name = r.benchmark_name() + "/ns_per_decision";
        d.iterations = r.iterations;
        d.ns_per_op = 1e9 / it->second.value;
        ctx_->add_case(std::move(d));
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  pfair::bench::BenchContext* ctx_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      pfair::bench::extract_json_flag(argc, argv, "micro_sched");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  pfair::bench::BenchContext ctx;
  CapturingReporter reporter(ctx);
  const auto t0 = std::chrono::steady_clock::now();
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::Shutdown();

  if (!json_path.empty()) {
    pfair::bench::BenchReport report;
    report.bench = "micro_sched";
    report.wall_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    report.ctx = &ctx;
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "bench_micro_sched: cannot open " << json_path << "\n";
      return 2;
    }
    out << pfair::bench::bench_report_json(report);
    std::cerr << "bench_micro_sched: report written to " << json_path << "\n";
  }
  return 0;
}
