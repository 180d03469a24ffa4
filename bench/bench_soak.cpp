// Experiment S1 — scale soak: a large fully-utilized system (M = 16,
// long horizon, thousands of subtasks) through every scheduler, with all
// invariants re-checked and wall-clock throughput reported.  Guards the
// library's O(.) behaviour and shows the bounds do not erode with scale.
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>

#include "pfair/pfair.hpp"

#include "bench_main.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set size of the process so far, in bytes (Linux
/// ru_maxrss is KiB).
std::size_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

/// S1-large: the flyweight-era tier.  M = 16 at full utilization over a
/// one-million-slot horizon — ~1.6e7 subtasks, a system the eager
/// construction path could not hold in memory (~1 GiB of Subtasks alone
/// before the schedule exists).  Reports the construction / simulation
/// wall split and peak RSS, and requires the whole run under 1 GiB.
/// Gated on PFAIR_SOAK_LARGE=1: minutes-scale, meant for perf sessions,
/// not the default bench sweep.
int run_large_tier(pfair::bench::BenchContext& ctx) {
  using namespace pfair;
  constexpr std::int64_t kLargeHorizon = 1'000'000;
  std::cout << "\n=== S1-large: M = 16, horizon " << kLargeHorizon
            << " (PFAIR_SOAK_LARGE) ===\n\n";

  const std::size_t rss_before = peak_rss_bytes();
  GeneratorConfig cfg;
  cfg.processors = 16;
  cfg.target_util = Rational(16);
  cfg.horizon = kLargeHorizon;
  cfg.seed = 4242;
  const auto t0 = std::chrono::steady_clock::now();
  const TaskSystem sys = generate_periodic(cfg);
  const double construct_ms = ms_since(t0);
  std::cout << sys.summary() << '\n';
  std::cout << "construction: " << construct_ms << " ms, subtask storage "
            << sys.subtask_memory_bytes() << " bytes\n";

  // The genuine O(horizon) simulation — cycle detection off, every one
  // of the million slots decided for real.
  SfqOptions full_opts;
  full_opts.cycle_detect = false;
  const auto t1 = std::chrono::steady_clock::now();
  const SlotSchedule s = schedule_sfq(sys, full_opts);
  const double sim_ms = ms_since(t1);
  const bool valid = s.complete() && check_slot_schedule(sys, s).valid();

  // The same run through steady-state cycle detection, kept compressed:
  // prefix + one stored cycle + tail, no materialization in the timed
  // region.  Min over a few repetitions (the first pays one-off page
  // faults); exactness is proven afterwards by comparing every placement
  // against the full run.
  double ff_ms = 0.0;
  std::optional<CycleSchedule> ff;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t2 = std::chrono::steady_clock::now();
    ff.emplace(schedule_sfq_cyclic(sys));
    const double ms = ms_since(t2);
    if (rep == 0 || ms < ff_ms) ff_ms = ms;
  }
  const CycleSchedule& cyc = *ff;
  bool ff_identical = cyc.complete();
  for (std::int32_t k = 0; k < sys.num_tasks() && ff_identical; ++k) {
    for (std::int32_t q = 0; q < sys.task(k).num_subtasks(); ++q) {
      const SubtaskRef ref{k, q};
      const SlotPlacement p = cyc.placement(ref);
      if (p.slot != s.placement(ref).slot ||
          p.proc != s.placement(ref).proc) {
        ff_identical = false;
        break;
      }
    }
  }
  const CycleStats& st = cyc.stats();
  const double ff_speedup = sim_ms / std::max(ff_ms, 1e-9);

  const std::size_t rss = peak_rss_bytes();
  constexpr std::size_t kGiB = std::size_t{1} << 30;
  const bool under_budget = rss < kGiB;
  std::cout << "simulation:   " << sim_ms << " ms ("
            << static_cast<double>(sys.total_subtasks()) / sim_ms
            << " subtasks/ms)\n";
  std::cout << "fast-forward: " << ff_ms << " ms (" << ff_speedup
            << "x; prefix " << st.prefix_slots << " + cycle "
            << st.cycle_slots << " slots x " << st.cycles_skipped
            << " skipped, " << st.sim_slots << " slots simulated, "
            << (ff_identical ? "bit-identical" : "MISMATCH") << ")\n";
  std::cout << "wall split:   construction "
            << 100.0 * construct_ms / (construct_ms + sim_ms)
            << "% / simulation "
            << 100.0 * sim_ms / (construct_ms + sim_ms) << "%\n";
  std::cout << "peak RSS:     " << static_cast<double>(rss) / (1 << 20)
            << " MiB (" << static_cast<double>(rss_before) / (1 << 20)
            << " MiB at entry)\n";

  ctx.value("large.construct_ms", construct_ms);
  ctx.value("large.sim_ms", sim_ms);
  ctx.value("large.ff_ms", ff_ms);
  ctx.value("large.ff_speedup", ff_speedup);
  ctx.value("large.ff_cycle_slots", static_cast<double>(st.cycle_slots));
  ctx.value("large.ff_cycles_skipped",
            static_cast<double>(st.cycles_skipped));
  ctx.value("large.ff_sim_slots", static_cast<double>(st.sim_slots));
  ctx.value("large.peak_rss_bytes", static_cast<double>(rss));
  ctx.value("large.subtasks", static_cast<double>(sys.total_subtasks()));

  const bool ok = valid && under_budget &&
                  sys.total_subtasks() > 10'000'000 && st.engaged &&
                  ff_identical && ff_speedup >= 100.0;
  std::cout << "shape check (valid schedule, > 1e7 subtasks, peak RSS < "
               "1 GiB, fast-forward engaged, bit-identical, >= 100x): "
            << (ok ? "PASS" : "FAIL") << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int run_bench(pfair::bench::BenchContext& ctx) {
  using namespace pfair;
  std::cout << "=== S1: scale soak (M = 16, horizon 240) ===\n\n";

  GeneratorConfig cfg;
  cfg.processors = 16;
  cfg.target_util = Rational(16);
  cfg.horizon = 240;
  cfg.seed = 4242;
  const TaskSystem sys = generate_periodic(cfg);
  std::cout << sys.summary() << "\n\n";
  bool ok = sys.total_subtasks() > 3000;

  TextTable t;
  t.header({"scheduler", "wall ms", "subtasks/ms", "max tardiness (q)",
            "invariants"});

  const auto add = [&](const char* name, double ms, std::int64_t tard,
                       bool good) {
    t.row({name, cell(ms, 1),
           cell(static_cast<double>(sys.total_subtasks()) / ms, 0),
           cell(static_cast<double>(tard) /
                static_cast<double>(kTicksPerSlot)),
           good ? "ok" : "VIOLATED"});
  };

  {
    const auto t0 = std::chrono::steady_clock::now();
    const SlotSchedule s = schedule_sfq(sys);
    const double ms = ms_since(t0);
    const bool good =
        s.complete() && check_slot_schedule(sys, s).valid();
    ok &= good;
    add("PD2 / SFQ", ms, measure_tardiness(sys, s).max_ticks, good);
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    const SlotSchedule s = schedule_pdb(sys);
    const double ms = ms_since(t0);
    const std::int64_t tard = measure_tardiness(sys, s).max_ticks;
    const bool good = s.complete() && tard <= kTicksPerSlot;
    ok &= good;
    add("PD^B", ms, tard, good);
  }
  {
    const BernoulliYield yields(9, 1, 2, Time::ticks(kTicksPerSlot / 2),
                                kQuantum - kTick);
    const auto t0 = std::chrono::steady_clock::now();
    const DvqSchedule s = schedule_dvq(sys, yields);
    const double ms = ms_since(t0);
    const std::int64_t tard = measure_tardiness(sys, s).max_ticks;
    const bool good = s.complete() && tard < kTicksPerSlot &&
                      check_dvq_schedule(sys, s, kQuantum).valid();
    ok &= good;
    add("PD2 / DVQ", ms, tard, good);
  }
  {
    const FullQuantumYield yields;
    const auto t0 = std::chrono::steady_clock::now();
    const DvqSchedule s = schedule_staggered(sys, yields);
    const double ms = ms_since(t0);
    const std::int64_t tard = measure_tardiness(sys, s).max_ticks;
    const bool good = s.complete() && tard < kTicksPerSlot;
    ok &= good;
    add("PD2 / staggered", ms, tard, good);
  }
  std::cout << t.str() << "\n";
  std::cout << "Expected shape: every invariant holds at scale; "
               "tardiness bounds are unchanged.\n\n";
  std::cout << "shape check: " << (ok ? "PASS" : "FAIL") << '\n';

  const char* large = std::getenv("PFAIR_SOAK_LARGE");
  if (large != nullptr && std::strcmp(large, "1") == 0) {
    const int rc = run_large_tier(ctx);
    if (rc != 0) return rc;
  }
  return ok ? 0 : 1;
}

PFAIR_BENCH_MAIN("soak", run_bench)
