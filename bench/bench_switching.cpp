// Experiment X9 — scheduler-mechanism cost proxies across quantum
// models: context switches, migrations and preemptions (the quantities
// implementation studies charge for — cache refills, IPIs, queue
// operations), counted by recount_quality with the QualityCounters
// definitions (obs/quality.hpp).  The paper's motivation bullets
// predict: DVQ removes the idling of SFQ without adding mechanism;
// early release lets a job's subtasks run back-to-back, so fewer
// processor hand-offs.
#include <iostream>

#include "pfair/pfair.hpp"

#include "bench_main.hpp"

int run_bench(pfair::bench::BenchContext&) {
  using namespace pfair;
  std::cout << "=== X9: context switches / migrations / preemptions ===\n\n";

  constexpr int kM = 4;
  GeneratorConfig cfg;
  cfg.processors = kM;
  cfg.target_util = Rational(kM);
  cfg.weights = WeightClass::kHeavy;  // multi-subtask jobs
  cfg.horizon = 40;
  cfg.seed = 42;
  const TaskSystem sys = generate_periodic(cfg);
  const TaskSystem er = sys.with_early_release();
  const BernoulliYield yields(7, 1, 2, Time::ticks(kTicksPerSlot / 2),
                              kQuantum - kTick);
  std::cout << sys.summary() << "\n\n";

  TextTable t;
  t.header({"model", "ctx switches", "migrations", "preemptions",
            "migr/placement"});
  bool ok = true;

  // Recounts a schedule; an incomplete one fails the shape check (the
  // recount needs every subtask placed).
  const auto add = [&t, &ok](const char* name, const TaskSystem& s,
                             const auto& sched) {
    if (!sched.complete()) {
      ok = false;
      t.row({name, "incomplete", "-", "-", "-"});
      return QualityCounters{};
    }
    const QualityCounters q = recount_quality(s, sched);
    t.row({name, cell(q.context_switches), cell(q.migrations),
           cell(q.preemptions),
           cell(static_cast<double>(q.migrations) /
                static_cast<double>(s.total_subtasks()))});
    return q;
  };

  add("PD2 / SFQ", sys, schedule_sfq(sys));
  add("PD^B / SFQ", sys, schedule_pdb(sys));
  const QualityCounters dvq = add("PD2 / DVQ", sys, schedule_dvq(sys, yields));
  const QualityCounters dvq_er =
      add("PD2 / DVQ + ER", er, schedule_dvq(er, yields));
  add("PD2 / staggered", sys, schedule_staggered(sys, yields));

  std::cout << t.str() << "\n";

  // Shape: early release must not add context switches or migrations.
  // Preemptions are reported but not gated: with early release more
  // successors are ready when their predecessor completes, so more of
  // them count as preempted when they do not run at once.
  ok &= dvq_er.context_switches <= dvq.context_switches;
  ok &= dvq_er.migrations <= dvq.migrations;

  std::cout << "Expected shape: DVQ's mechanism counts stay in the same "
               "regime as SFQ's (the\nreclamation is free of extra "
               "scheduler invocations), and early release cuts\ncontext "
               "switches and migrations by running a job's subtasks "
               "back-to-back.\n\n";
  std::cout << "shape check: " << (ok ? "PASS" : "FAIL") << '\n';
  return ok ? 0 : 1;
}

PFAIR_BENCH_MAIN("switching", run_bench)
