// Experiment X5 — the staggered model of Holman & Anderson (related
// work, Sec. 1): distributing quantum boundaries across processors
// removes simultaneous scheduling decisions (their bus-contention
// motivation) at a bounded tardiness cost, since staggering is a special
// case of the DVQ model.
#include <iostream>
#include <map>

#include "pfair/pfair.hpp"

#include "bench_main.hpp"

int run_bench(pfair::bench::BenchContext&) {
  using namespace pfair;
  std::cout << "=== X5: staggered vs aligned quanta ===\n\n";

  TextTable t;
  t.header({"M", "max concurrent decisions (aligned)",
            "max concurrent (staggered)", "stag max tardiness (q)",
            "bound ok"});
  bool ok = true;

  for (const int m : {2, 4, 8}) {
    GeneratorConfig cfg;
    cfg.processors = m;
    cfg.target_util = Rational(m);
    cfg.horizon = 24;
    cfg.seed = static_cast<std::uint64_t>(m) * 101;
    const TaskSystem sys = generate_periodic(cfg);
    const FullQuantumYield yields;

    // Aligned (SFQ): all M processors decide at every slot boundary.
    const std::int64_t aligned_concurrency = m;

    // Each staggered decision starts exactly one subtask, so decisions
    // per instant are placements per start tick.
    const DvqSchedule stag = schedule_staggered(sys, yields);
    std::map<std::int64_t, std::int64_t> per_instant;
    for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
      for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
        ++per_instant[stag.placement(SubtaskRef{k, s}).start.raw_ticks()];
      }
    }
    std::int64_t stag_concurrency = 0;
    for (const auto& [at, n] : per_instant) {
      stag_concurrency = std::max(stag_concurrency, n);
    }

    const TardinessSummary tard = measure_tardiness(sys, stag);
    ok &= stag.complete();
    ok &= stag_concurrency == 1;  // boundaries fully spread out
    ok &= tard.max_ticks < kTicksPerSlot;  // Theorem 3 applies

    t.row({cell(static_cast<std::int64_t>(m)), cell(aligned_concurrency),
           cell(stag_concurrency), cell(tard.max_quanta()),
           tard.max_ticks < kTicksPerSlot ? "yes" : "NO"});
  }
  std::cout << t.str() << "\n";
  std::cout << "Expected shape: staggering reduces worst-case concurrent "
               "decisions from M to 1\nwhile tardiness stays below one "
               "quantum (staggered subset of DVQ, Theorem 3).\n\n";
  std::cout << "shape check: " << (ok ? "PASS" : "FAIL") << '\n';
  return ok ? 0 : 1;
}

PFAIR_BENCH_MAIN("staggered", run_bench)
