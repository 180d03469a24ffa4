// Experiment P1 — per-decision scheduling cost vs task count.
//
// Sweeps n over 64..16384 light-weight tasks and times the optimized
// simulators (slot calendars + packed priority keys) against the
// retained naive references, which re-scan all n tasks at every decision
// (the pre-optimization hot path).  Expected shape: the optimized cost
// per decision is O(changes), so the speedup grows roughly linearly with
// n; the shape check requires >= 5x at n = 16384 and bit-identical
// schedules at every point.  The post-simulation section also requires
// DVQ validity and recount within 2x of SFQ's per placement (the DVQ
// checks read time order off the schedule's order log).  The staggered
// scheduler (DVQ's event loop on a per-processor boundary grid) is timed
// on the same systems and must stay within 2x of DVQ at n = 4096;
// staggered_test pins its schedules against a boundary-walk oracle.
// Construction is timed from subtask specs and, as `construction/text/<n>`,
// from task-file text through parse_task_string(text).build().
//
// Experiment X4 rides along: the cost per placement of each scheduler
// (SFQ under EPDF, PF and PD², PD^B, DVQ, staggered) on fully loaded
// generated systems at M = 4, 8, 16, as reported values.
#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "pfair/pfair.hpp"

#include "bench_main.hpp"
#include "sweep.hpp"

namespace {

using namespace pfair;

constexpr std::int64_t kHorizon = 96;
// The construction sweep materializes far past the scheduling horizon:
// the point is the cost of building the subtask sequences themselves.
constexpr std::int64_t kConstructionHorizon = 1024;
// The cycle fast-forward sweep: 50 hyperperiods (lcm of kDens = 192) so
// the cyclic drivers have a long steady-state region to warp over.
constexpr std::int64_t kCycleHorizon = 9600;

// Light weights from a small denominator set: per-slot ready sets stay
// a small fraction of n, which is exactly the regime where a full
// rescan wastes the most work.
constexpr std::int64_t kDens[] = {16, 24, 32, 48, 64};

std::vector<Task> build_tasks(std::int64_t n, std::int64_t horizon,
                              bool eager, WindowTableCache* cache) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const Weight w(1, kDens[i % 5]);
    std::string name = "t" + std::to_string(i);
    tasks.push_back(
        eager ? Task::periodic_phased_eager(std::move(name), w, 0, horizon)
              : Task::periodic_phased(std::move(name), w, 0, horizon, cache));
  }
  return tasks;
}

/// A wide_periodic-shaped task file: n light 1/p tasks over kDens, every
/// 64th one heavy, horizon 96.
std::string make_scaling_text(std::int64_t n) {
  std::string text =
      "processors " + std::to_string(n / 16) + "\nhorizon 96\n";
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t p = kDens[i % 5];
    const std::int64_t e = i % 64 == 63 ? p / 2 + (i / 64) % (p / 2) : 1;
    text += "task t" + std::to_string(i) + " " + std::to_string(e) + "/" +
            std::to_string(p) + "\n";
  }
  return text;
}

/// X4's systems: M processors fully loaded with generated periodic
/// tasks.
TaskSystem make_system(int m, std::int64_t horizon, std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.processors = m;
  cfg.target_util = Rational(m);
  cfg.horizon = horizon;
  cfg.seed = seed;
  return generate_periodic(cfg);
}

TaskSystem make_scaling_system(std::int64_t n) {
  std::vector<Task> tasks = build_tasks(n, kHorizon, /*eager=*/false,
                                        /*cache=*/nullptr);
  Rational util(0);
  for (const Task& t : tasks) util += t.weight().value();
  const auto procs = static_cast<int>(util.ceil());
  return TaskSystem(std::move(tasks), procs);
}

template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// Minor page faults of this process per call over `reps` calls of `fn`
// (getrusage(RUSAGE_SELF): the bench's own process, nothing else).
template <typename Fn>
double minor_faults_per_call(int reps, Fn&& fn) {
  const auto faults = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_minflt);
  };
  const double before = faults();
  for (int r = 0; r < reps; ++r) fn();
  return (faults() - before) / reps;
}

// Interleaved off/on timing (one pair per rep), so a background load
// burst hits both sides instead of skewing whichever leg ran while it
// lasted; best-of keeps the quiet samples.  Returns {off, on} in ms.
template <typename Off, typename On>
std::pair<double, double> best_pair(int reps, Off&& off_fn, On&& on_fn) {
  std::pair<double, double> best{0.0, 0.0};
  for (int r = 0; r < reps; ++r) {
    const double off = best_ms(1, off_fn);
    const double on = best_ms(1, on_fn);
    if (r == 0 || off < best.first) best.first = off;
    if (r == 0 || on < best.second) best.second = on;
  }
  return best;
}

bool same_sfq(const SlotSchedule& a, const SlotSchedule& b,
              const TaskSystem& sys) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      if (a.placement(ref).slot != b.placement(ref).slot ||
          a.placement(ref).proc != b.placement(ref).proc) {
        return false;
      }
    }
  }
  return true;
}

bool same_dvq(const DvqSchedule& a, const DvqSchedule& b,
              const TaskSystem& sys) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      if (a.placement(ref).start != b.placement(ref).start ||
          a.placement(ref).proc != b.placement(ref).proc) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int run_bench(pfair::bench::BenchContext& ctx) {
  std::cout << "=== P1: scheduling cost vs task count ===\n\n";

  TextTable t;
  t.header({"n", "procs", "subtasks", "sfq ref (ms)", "sfq fast (ms)",
            "arena (ms)", "scalar (ms)", "sfq x", "dvq ref (ms)",
            "dvq fast (ms)", "dvq x", "stag fast (ms)", "identical"});

  bool all_identical = true;
  double sfq_speedup_max_n = 0.0, dvq_speedup_max_n = 0.0;
  double arena_vs_fast_max_n = 0.0;
  double dvq_vs_sfq_4096 = 0.0;
  double stag_vs_dvq_4096 = 0.0;

  for (const std::int64_t n : {64L, 256L, 1024L, 4096L, 16384L}) {
    const TaskSystem sys = make_scaling_system(n);
    // Small cases cost microseconds; take the min over many repetitions
    // so scheduler noise on a loaded box cannot masquerade as cost.
    const int reps = n <= 256 ? 15 : n <= 4096 ? 5 : 2;

    SfqOptions opts;
    opts.horizon_limit = kHorizon + 8;
    SlotSchedule sfq_ref(sys), sfq_fast(sys);
    const double sfq_ref_ms =
        best_ms(reps, [&] { sfq_ref = schedule_sfq_reference(sys, opts); });
    const double sfq_fast_ms =
        best_ms(reps, [&] { sfq_fast = schedule_sfq(sys, opts); });

    // SIMD+arena leg: the same decision path, but with working state in
    // a reused bump arena and placements written into a preallocated
    // schedule — the steady-state per-call cost (the arena reset is part
    // of it).  The forced-scalar leg reruns it with every simd kernel
    // routed to the portable implementation; both must be bit-identical
    // to the heap-allocating run (and to the naive reference).
    Arena arena;
    SfqOptions aopts = opts;
    aopts.arena = &arena;
    SlotSchedule sfq_arena(sys), sfq_scalar(sys);
    const double sfq_arena_ms = best_ms(reps, [&] {
      arena.reset();
      schedule_sfq_into(sys, aopts, sfq_arena);
    });
    simd::set_force_scalar(true);
    const double sfq_scalar_ms = best_ms(reps, [&] {
      arena.reset();
      schedule_sfq_into(sys, aopts, sfq_scalar);
    });
    simd::set_force_scalar(false);

    const BernoulliYield yields(static_cast<std::uint64_t>(n) + 5, 1, 2,
                                Time::ticks(kTicksPerSlot / 2),
                                kQuantum - kTick);
    DvqOptions dopts;
    dopts.horizon_limit = kHorizon + 8;
    DvqSchedule dvq_ref(sys), dvq_fast(sys);
    const double dvq_ref_ms = best_ms(
        reps, [&] { dvq_ref = schedule_dvq_reference(sys, yields, dopts); });
    const double dvq_fast_ms =
        best_ms(reps, [&] { dvq_fast = schedule_dvq(sys, yields, dopts); });
    // Staggered, interleaved with a second DVQ timing so a load burst
    // cannot skew the ratio the shape check reads.
    StaggeredOptions sopts;
    sopts.horizon_limit = kHorizon + 8;
    const auto [dvq_paired_ms, stag_fast_ms] = best_pair(
        reps, [&] { (void)schedule_dvq(sys, yields, dopts); },
        [&] { (void)schedule_staggered(sys, yields, sopts); });

    const bool identical =
        same_sfq(sfq_ref, sfq_fast, sys) && same_sfq(sfq_ref, sfq_arena, sys) &&
        same_sfq(sfq_ref, sfq_scalar, sys) && same_dvq(dvq_ref, dvq_fast, sys);
    all_identical &= identical;

    const double sfq_x = sfq_ref_ms / std::max(sfq_fast_ms, 1e-9);
    const double dvq_x = dvq_ref_ms / std::max(dvq_fast_ms, 1e-9);
    if (n == 16384) {
      sfq_speedup_max_n = sfq_x;
      dvq_speedup_max_n = dvq_x;
      arena_vs_fast_max_n = sfq_arena_ms / std::max(sfq_fast_ms, 1e-9);
    }
    if (n == 4096) {
      dvq_vs_sfq_4096 = dvq_fast_ms / std::max(sfq_fast_ms, 1e-9);
      stag_vs_dvq_4096 = stag_fast_ms / std::max(dvq_paired_ms, 1e-9);
    }

    const std::string tag = std::to_string(n);
    ctx.value("sfq.ref_ms." + tag, sfq_ref_ms);
    ctx.value("sfq.fast_ms." + tag, sfq_fast_ms);
    ctx.value("sfq.arena_ms." + tag, sfq_arena_ms);
    ctx.value("sfq.scalar_ms." + tag, sfq_scalar_ms);
    ctx.value("sfq.speedup." + tag, sfq_x);
    ctx.value("dvq.ref_ms." + tag, dvq_ref_ms);
    ctx.value("dvq.fast_ms." + tag, dvq_fast_ms);
    ctx.value("dvq.speedup." + tag, dvq_x);
    ctx.value("stag.fast_ms." + tag, stag_fast_ms);
    for (const auto& [name, ms] :
         {std::pair<const char*, double>{"sfq_fast/", sfq_fast_ms},
          {"sfq_ref/", sfq_ref_ms},
          {"sfq_arena/", sfq_arena_ms},
          {"sfq_scalar/", sfq_scalar_ms},
          {"dvq_fast/", dvq_fast_ms},
          {"dvq_ref/", dvq_ref_ms},
          {"stag_fast/", stag_fast_ms}}) {
      pfair::bench::BenchCase c;
      c.name = std::string(name) + tag;
      c.ns_per_op = ms * 1e6;
      c.iterations = reps;
      ctx.add_case(std::move(c));
    }

    t.row({cell(n), cell(static_cast<std::int64_t>(sys.processors())),
           cell(sys.total_subtasks()), cell(sfq_ref_ms, 2),
           cell(sfq_fast_ms, 2), cell(sfq_arena_ms, 2), cell(sfq_scalar_ms, 2),
           cell(sfq_x, 1), cell(dvq_ref_ms, 2), cell(dvq_fast_ms, 2),
           cell(dvq_x, 1), cell(stag_fast_ms, 2), identical ? "yes" : "NO"});
  }

  std::cout << t.str() << "\n";
  std::cout << "horizon " << kHorizon << " slots; fast = incremental "
            << "(slot calendars + packed keys), ref = naive rescan\n"
            << "dvq_fast / sfq_fast at n = 4096: " << dvq_vs_sfq_4096 << "x\n"
            << "stag_fast / dvq_fast at n = 4096: " << stag_vs_dvq_4096
            << "x\n";
  ctx.value("dvq_vs_sfq_fast.4096", dvq_vs_sfq_4096);
  ctx.value("stag_vs_dvq_fast.4096", stag_vs_dvq_4096);
  // Reported, not shape-checked (see the note above `ok`); the target is
  // an arena leg no slower than the fast leg, < 1.15x.
  std::cout << "sfq_arena / sfq_fast at n = 16384: " << arena_vs_fast_max_n
            << "x\n";
  ctx.value("sfq.arena_vs_fast.16384", arena_vs_fast_max_n);

  // --- X4: cost per placement by scheduler ---
  // One whole-schedule call on make_system(m, 48, 7), best of kReps, per
  // placement: x4.<leg>_ns_per_placement.<m>.  The perf gate's case is
  // one DVQ call on each of the three systems, timed as one
  // (x4_dvq/sweep): a single M = 16 call (~50 us) sits under its floor.
  std::cout << "\n=== X4: ns per placement by scheduler "
               "(make_system(m, 48, 7)) ===\n\n";
  {
    constexpr int kReps = 200;
    const BernoulliYield yields(11, 1, 2, Time::ticks(kTicksPerSlot / 2),
                                kQuantum - kTick);
    const FullQuantumYield full;
    std::vector<TaskSystem> systems;
    TextTable xt;
    xt.header({"M", "subtasks", "sfq epdf", "sfq pf", "sfq pd2", "pd^b", "dvq",
               "staggered"});
    for (const int m : {4, 8, 16}) {
      const TaskSystem& sys = systems.emplace_back(make_system(m, 48, 7));
      const auto sfq = [&](Policy policy) {
        SfqOptions o;
        o.policy = policy;
        return best_ms(kReps, [&] { (void)schedule_sfq(sys, o); });
      };
      const std::pair<const char*, double> legs[] = {
          {"sfq_epdf", sfq(Policy::kEpdf)},
          {"sfq_pf", sfq(Policy::kPf)},
          {"sfq_pd2", sfq(Policy::kPd2)},
          {"pdb", best_ms(kReps, [&] { (void)schedule_pdb(sys); })},
          {"dvq", best_ms(kReps, [&] { (void)schedule_dvq(sys, yields); })},
          {"staggered",
           best_ms(kReps, [&] { (void)schedule_staggered(sys, full); })},
      };
      const std::string tag = std::to_string(m);
      const auto placements = static_cast<double>(sys.total_subtasks());
      std::vector<std::string> row{cell(static_cast<std::int64_t>(m)),
                                   cell(sys.total_subtasks())};
      for (const auto& [name, ms] : legs) {
        const double ns = ms * 1e6 / placements;
        ctx.value(std::string("x4.") + name + "_ns_per_placement." + tag, ns);
        row.push_back(cell(ns, 1));
      }
      xt.row(row);
    }
    std::cout << xt.str();
    pfair::bench::BenchCase c;
    c.name = "x4_dvq/sweep";
    c.ns_per_op = 1e6 * best_ms(kReps, [&] {
      for (const TaskSystem& sys : systems) (void)schedule_dvq(sys, yields);
    });
    c.iterations = kReps;
    std::cout << "x4_dvq/sweep (one DVQ call per system): "
              << c.ns_per_op / 1e3 << " us\n";
    ctx.add_case(std::move(c));
  }

  // --- Auditor overhead: invariant checking on the production path ---
  // The auditor's event mask fits in kDecisionTraceEvents, so an
  // auditor-only run stays on the O(changes) fast path with only the
  // decision-outcome events emitted.  Required shape: a clean audit.
  // The ratio to the uninstrumented runtime at n = 4096 is reported, not
  // shape-checked (see the note above `ok`); its target is < 1.5x.
  std::cout << "\n=== auditor overhead (n = 4096) ===\n\n";
  bool audit_clean = true;
  {
    constexpr std::int64_t n = 4096;
    const TaskSystem sys = make_scaling_system(n);
    const int reps = 5;
    SfqOptions opts;
    opts.horizon_limit = kHorizon + 8;
    const double sfq_off =
        best_ms(reps, [&] { (void)schedule_sfq(sys, opts); });
    const double sfq_on = best_ms(reps, [&] {
      InvariantAuditor auditor(sys);
      SfqOptions aopts = opts;
      aopts.trace = &auditor;
      (void)schedule_sfq(sys, aopts);
      audit_clean &= auditor.clean();
    });
    const BernoulliYield yields(static_cast<std::uint64_t>(n) + 5, 1, 2,
                                Time::ticks(kTicksPerSlot / 2),
                                kQuantum - kTick);
    DvqOptions dopts;
    dopts.horizon_limit = kHorizon + 8;
    const double dvq_off =
        best_ms(reps, [&] { (void)schedule_dvq(sys, yields, dopts); });
    const double dvq_on = best_ms(reps, [&] {
      InvariantAuditor auditor(sys);
      DvqOptions aopts = dopts;
      aopts.trace = &auditor;
      (void)schedule_dvq(sys, yields, aopts);
      audit_clean &= auditor.clean();
    });
    const double audit_sfq_ratio = sfq_on / std::max(sfq_off, 1e-9);
    const double audit_dvq_ratio = dvq_on / std::max(dvq_off, 1e-9);
    ctx.value("audit.sfq_off_ms", sfq_off);
    ctx.value("audit.sfq_on_ms", sfq_on);
    ctx.value("audit.sfq_overhead", audit_sfq_ratio);
    ctx.value("audit.dvq_off_ms", dvq_off);
    ctx.value("audit.dvq_on_ms", dvq_on);
    ctx.value("audit.dvq_overhead", audit_dvq_ratio);
    TextTable at;
    at.header({"model", "off (ms)", "audited (ms)", "ratio", "clean"});
    at.row({"sfq", cell(sfq_off, 2), cell(sfq_on, 2),
            cell(audit_sfq_ratio, 2), audit_clean ? "yes" : "NO"});
    at.row({"dvq", cell(dvq_off, 2), cell(dvq_on, 2),
            cell(audit_dvq_ratio, 2), audit_clean ? "yes" : "NO"});
    std::cout << at.str() << "\n";
  }

  // --- Metrics overhead: sched.* metrics on the production path ---
  // An attached MetricsRegistry rides the O(changes) fast path: counters
  // from the placement hooks, the ready-set histogram from the heap size,
  // and the three quality counters from one recount of the finished
  // schedule.  The ratio to the plain runtime at n = 4096 is reported,
  // not shape-checked (see the note above `ok`); the target is <= 1.2x.
  std::cout << "\n=== metrics overhead (n = 4096) ===\n\n";
  {
    constexpr std::int64_t n = 4096;
    const TaskSystem sys = make_scaling_system(n);
    const int reps = 11;
    SfqOptions opts;
    opts.horizon_limit = kHorizon + 8;
    const auto [sfq_off, sfq_on] = best_pair(
        reps, [&] { (void)schedule_sfq(sys, opts); },
        [&] {
          MetricsRegistry reg;
          SfqOptions mopts = opts;
          mopts.metrics = &reg;
          (void)schedule_sfq(sys, mopts);
        });
    const BernoulliYield yields(static_cast<std::uint64_t>(n) + 5, 1, 2,
                                Time::ticks(kTicksPerSlot / 2),
                                kQuantum - kTick);
    DvqOptions dopts;
    dopts.horizon_limit = kHorizon + 8;
    const auto [dvq_off, dvq_on] = best_pair(
        reps, [&] { (void)schedule_dvq(sys, yields, dopts); },
        [&] {
          MetricsRegistry reg;
          DvqOptions mopts = dopts;
          mopts.metrics = &reg;
          (void)schedule_dvq(sys, yields, mopts);
        });
    const double metrics_sfq_ratio = sfq_on / std::max(sfq_off, 1e-9);
    const double metrics_dvq_ratio = dvq_on / std::max(dvq_off, 1e-9);
    ctx.value("metrics.sfq_off_ms", sfq_off);
    ctx.value("metrics.sfq_on_ms", sfq_on);
    ctx.value("metrics.sfq_overhead", metrics_sfq_ratio);
    ctx.value("metrics.dvq_off_ms", dvq_off);
    ctx.value("metrics.dvq_on_ms", dvq_on);
    ctx.value("metrics.dvq_overhead", metrics_dvq_ratio);
    TextTable mt;
    mt.header({"model", "off (ms)", "metered (ms)", "ratio", "target"});
    mt.row({"sfq", cell(sfq_off, 2), cell(sfq_on, 2),
            cell(metrics_sfq_ratio, 2),
            metrics_sfq_ratio <= 1.2 ? "<= 1.2x met" : "> 1.2x"});
    mt.row({"dvq", cell(dvq_off, 2), cell(dvq_on, 2),
            cell(metrics_dvq_ratio, 2),
            metrics_dvq_ratio <= 1.2 ? "<= 1.2x met" : "> 1.2x"});
    std::cout << mt.str() << "\n";
  }

  // --- Scheduler-quality counters (n = 4096) ---
  // The counters a run fills from the recount of its schedule; the
  // numbers land in the report so the perf guard can track
  // preemption/migration behavior over time.
  std::cout << "\n=== scheduler-quality counters (n = 4096) ===\n\n";
  {
    constexpr std::int64_t n = 4096;
    const TaskSystem sys = make_scaling_system(n);

    SfqOptions opts;
    opts.horizon_limit = kHorizon + 8;
    QualityCounters sq;
    opts.quality = &sq;
    (void)schedule_sfq(sys, opts);

    const BernoulliYield yields(static_cast<std::uint64_t>(n) + 5, 1, 2,
                                Time::ticks(kTicksPerSlot / 2),
                                kQuantum - kTick);
    DvqOptions dopts;
    dopts.horizon_limit = kHorizon + 8;
    QualityCounters dq;
    dopts.quality = &dq;
    (void)schedule_dvq(sys, yields, dopts);

    publish_quality(sq, ctx.metrics(), "sched.quality.sfq");
    publish_quality(dq, ctx.metrics(), "sched.quality.dvq");
    ctx.value("quality.sfq.preemptions",
              static_cast<double>(sq.preemptions));
    ctx.value("quality.sfq.migrations", static_cast<double>(sq.migrations));
    ctx.value("quality.sfq.idle_slots", static_cast<double>(sq.idle_slots));
    ctx.value("quality.sfq.context_switches",
              static_cast<double>(sq.context_switches));
    ctx.value("quality.dvq.preemptions",
              static_cast<double>(dq.preemptions));
    ctx.value("quality.dvq.migrations", static_cast<double>(dq.migrations));
    ctx.value("quality.dvq.idle_slots", static_cast<double>(dq.idle_slots));
    ctx.value("quality.dvq.context_switches",
              static_cast<double>(dq.context_switches));

    TextTable qt;
    qt.header({"model", "preempt", "migrate", "idle", "ctx-switch",
               "decisions"});
    qt.row({"sfq", cell(sq.preemptions), cell(sq.migrations),
            cell(sq.idle_slots), cell(sq.context_switches),
            cell(sq.decision_points)});
    qt.row({"dvq", cell(dq.preemptions), cell(dq.migrations),
            cell(dq.idle_slots), cell(dq.context_switches),
            cell(dq.decision_points)});
    std::cout << qt.str() << "\n";
  }

  // --- Post-simulation layers (n = 4096) ---
  // What runs after the simulator on every pfairsim run: validity,
  // tardiness, the quality recount and the CSV export, in ns per
  // placement.  All four are O(placements) with no per-row allocation
  // and walk each task once in seq order; the post/ cases (ns per call)
  // let perf_guard catch a return to per-row strings, tree-map slot
  // counts or per-subtask random-access lookups.
  std::cout << "\n=== post-simulation layers (n = 4096) ===\n\n";
  bool post_cyclic_engaged = false;
  double cyclic_64_vs_16 = 0;
  double validity_dvq_vs_sfq = 0, recount_dvq_vs_sfq = 0;
  {
    constexpr std::int64_t n = 4096;
    const TaskSystem sys = make_scaling_system(n);
    const int reps = 11;
    SfqOptions opts;
    opts.horizon_limit = kHorizon + 8;
    const SlotSchedule ssched = schedule_sfq(sys, opts);
    const BernoulliYield yields(static_cast<std::uint64_t>(n) + 5, 1, 2,
                                Time::ticks(kTicksPerSlot / 2),
                                kQuantum - kTick);
    DvqOptions dopts;
    dopts.horizon_limit = kHorizon + 8;
    const DvqSchedule dsched = schedule_dvq(sys, yields, dopts);
    const double placements = static_cast<double>(sys.total_subtasks());

    std::size_t sink = 0;
    const auto per_call = [&](auto&& fn) { return best_ms(reps, fn) * 1e6; };
    const std::pair<const char*, double> layers[] = {
        {"validity_sfq", per_call([&] {
           sink += check_slot_schedule(sys, ssched).violations.size();
         })},
        {"validity_dvq", per_call([&] {
           sink += check_dvq_schedule(sys, dsched, kQuantum).violations.size();
         })},
        {"tardiness_sfq", per_call([&] {
           sink += static_cast<std::size_t>(
               measure_tardiness(sys, ssched).late_subtasks);
         })},
        {"tardiness_dvq", per_call([&] {
           sink += static_cast<std::size_t>(
               measure_tardiness(sys, dsched).late_subtasks);
         })},
        {"recount_sfq", per_call([&] {
           sink += static_cast<std::size_t>(
               recount_quality(sys, ssched).context_switches);
         })},
        {"recount_dvq", per_call([&] {
           sink += static_cast<std::size_t>(
               recount_quality(sys, dsched).context_switches);
         })},
        {"export_sfq", per_call([&] {
           sink += export_slot_schedule(sys, ssched).rows();
         })},
        {"export_dvq", per_call([&] {
           sink += export_dvq_schedule(sys, dsched).rows();
         })},
    };
    PFAIR_ASSERT(sink > 0);
    // Both schedules hold the same placements, so the per-call ratio is
    // the per-placement one.  The DVQ checks read processor time order
    // off the schedule's order log; the target is within 2x of SFQ.
    const auto layer_ns = [&](std::string_view name) {
      for (const auto& [n_, ns] : layers) {
        if (name == n_) return ns;
      }
      return 0.0;
    };
    validity_dvq_vs_sfq =
        layer_ns("validity_dvq") / std::max(layer_ns("validity_sfq"), 1e-9);
    recount_dvq_vs_sfq =
        layer_ns("recount_dvq") / std::max(layer_ns("recount_sfq"), 1e-9);
    ctx.value("post.validity_dvq_vs_sfq", validity_dvq_vs_sfq);
    ctx.value("post.recount_dvq_vs_sfq", recount_dvq_vs_sfq);

    // The same passes on cycle-compressed schedules of a steady-state
    // shaped system (n = 1024, DVQ yields 3/4 quantum), never
    // materialized, at 16 and at 64 hyperperiods: the passes walk one
    // synthesized cycle and account for the other skipped ones in closed
    // form, so four times the horizon must cost well under twice as
    // much.  The 16-hyperperiod cases keep their historical names.
    constexpr std::int64_t cn = 1024;
    constexpr std::int64_t kHyper = 192;
    const auto cyclic_system = [&](std::int64_t hyperperiods) {
      std::vector<Task> ctasks = build_tasks(cn, hyperperiods * kHyper,
                                             /*eager=*/false,
                                             /*cache=*/nullptr);
      Rational cutil(0);
      for (const Task& task : ctasks) cutil += task.weight().value();
      return TaskSystem(std::move(ctasks), static_cast<int>(cutil.ceil()));
    };
    const TaskSystem csys = cyclic_system(16);
    const TaskSystem csys64 = cyclic_system(64);
    const FixedYield cyields(Time::slots_frac(0, 1, 4));
    const CycleSchedule csfq = schedule_sfq_cyclic(csys);
    const DvqCycleSchedule cdvq = schedule_dvq_cyclic(csys, cyields);
    const CycleSchedule csfq64 = schedule_sfq_cyclic(csys64);
    const DvqCycleSchedule cdvq64 = schedule_dvq_cyclic(csys64, cyields);
    post_cyclic_engaged = csfq.stats().engaged && cdvq.stats().engaged &&
                          csfq64.stats().engaged && cdvq64.stats().engaged;
    const auto cyclic_cases = [&](const TaskSystem& cs,
                                  const CycleSchedule& sfq,
                                  const DvqCycleSchedule& dvq) {
      return std::array<double, 4>{
          per_call([&] {
            sink += check_slot_schedule(cs, sfq).violations.size();
          }),
          per_call([&] {
            sink +=
                check_dvq_schedule(cs, dvq, kQuantum).violations.size();
          }),
          per_call([&] {
            sink += static_cast<std::size_t>(
                measure_tardiness(cs, sfq).total_subtasks);
          }),
          per_call([&] {
            sink += static_cast<std::size_t>(
                measure_tardiness(cs, dvq).total_subtasks);
          })};
    };
    const std::array<double, 4> ns16 = cyclic_cases(csys, csfq, cdvq);
    const std::array<double, 4> ns64 = cyclic_cases(csys64, csfq64, cdvq64);
    const char* const cyclic_names[] = {"validity_cyclic_sfq",
                                        "validity_cyclic_dvq",
                                        "tardiness_cyclic_sfq",
                                        "tardiness_cyclic_dvq"};
    double sum16 = 0, sum64 = 0;
    for (std::size_t i = 0; i < ns16.size(); ++i) {
      sum16 += ns16[i];
      sum64 += ns64[i];
    }
    cyclic_64_vs_16 = sum64 / std::max(sum16, 1e-9);
    ctx.value("post.cyclic_64hp_vs_16hp", cyclic_64_vs_16);

    TextTable lt;
    lt.header({"layer", "ns / placement", "ms / call"});
    const auto report = [&](const char* name, double ns, double per) {
      ctx.value(std::string("post.") + name + "_ns_per_placement", ns / per);
      pfair::bench::BenchCase c;
      c.name = std::string("post/") + name;
      c.ns_per_op = ns;
      c.iterations = reps;
      ctx.add_case(std::move(c));
      lt.row({name, cell(ns / per, 1), cell(ns / 1e6, 3)});
    };
    for (const auto& [name, ns] : layers) report(name, ns, placements);
    for (std::size_t i = 0; i < ns16.size(); ++i) {
      report(cyclic_names[i], ns16[i],
             static_cast<double>(csys.total_subtasks()));
      report((std::string(cyclic_names[i]) + "_64hp").c_str(), ns64[i],
             static_cast<double>(csys64.total_subtasks()));
    }
    std::cout << sys.total_subtasks() << " placements per schedule ("
              << csys.total_subtasks() << " / " << csys64.total_subtasks()
              << " per cyclic schedule at 16 / 64 hyperperiods, engaged: "
              << (post_cyclic_engaged ? "yes" : "NO") << ")\n"
              << lt.str() << "DVQ / SFQ per placement: validity "
              << validity_dvq_vs_sfq << "x, recount " << recount_dvq_vs_sfq
              << "x\ncyclic analysis at 64 hp vs 16 hp: " << cyclic_64_vs_16
              << "x\n\n";
  }

  // --- Profiler overhead (n = 4096, only under --profile) ---
  // Same workload with span recording suspended (ProfScope(nullptr))
  // vs recording into the harness profiler.  Spans are two TSC reads
  // plus a ring store, a few hundred per run here, so the target is
  // under 1.05; the ratio is reported, not shape-checked (see the note
  // above `ok`).  Best-of-11 read a median of 1.00-1.02 but up to 1.17
  // (DVQ) on a loaded 4-core box; 41 pairs (about 0.4 s) give both legs
  // more chances at a quiet sample.
  if (ctx.profiling()) {
    std::cout << "\n=== profiler overhead (n = 4096) ===\n\n";
    constexpr std::int64_t n = 4096;
    const TaskSystem sys = make_scaling_system(n);
    const int reps = 41;
    SfqOptions opts;
    opts.horizon_limit = kHorizon + 8;
    const auto [sfq_off, sfq_on] = best_pair(
        reps,
        [&] {
          prof::ProfScope off(nullptr);
          (void)schedule_sfq(sys, opts);
        },
        [&] { (void)schedule_sfq(sys, opts); });
    const BernoulliYield yields(static_cast<std::uint64_t>(n) + 5, 1, 2,
                                Time::ticks(kTicksPerSlot / 2),
                                kQuantum - kTick);
    DvqOptions dopts;
    dopts.horizon_limit = kHorizon + 8;
    const auto [dvq_off, dvq_on] = best_pair(
        reps,
        [&] {
          prof::ProfScope off(nullptr);
          (void)schedule_dvq(sys, yields, dopts);
        },
        [&] { (void)schedule_dvq(sys, yields, dopts); });
    const double prof_sfq_ratio = sfq_on / std::max(sfq_off, 1e-9);
    const double prof_dvq_ratio = dvq_on / std::max(dvq_off, 1e-9);
    ctx.value("prof.sfq_off_ms", sfq_off);
    ctx.value("prof.sfq_on_ms", sfq_on);
    ctx.value("prof.sfq_overhead", prof_sfq_ratio);
    ctx.value("prof.dvq_off_ms", dvq_off);
    ctx.value("prof.dvq_on_ms", dvq_on);
    ctx.value("prof.dvq_overhead", prof_dvq_ratio);
    TextTable pt;
    pt.header({"model", "off (ms)", "profiled (ms)", "ratio"});
    pt.row({"sfq", cell(sfq_off, 3), cell(sfq_on, 3),
            cell(prof_sfq_ratio, 3)});
    pt.row({"dvq", cell(dvq_off, 3), cell(dvq_on, 3),
            cell(prof_dvq_ratio, 3)});
    std::cout << pt.str() << "\n";
  }

  // --- Construction: flyweight window tables vs eager materialization ---
  // Times the pre-flyweight construction path (every subtask built and
  // validated) against the flyweight one (per task: a count plus a shared
  // table, built once per distinct rate — the fresh local cache inside the
  // timed region charges the table builds to the flyweight side).
  std::cout << "\n=== construction: flyweight tables vs eager "
            << "materialization (horizon " << kConstructionHorizon
            << ") ===\n\n";
  TextTable ct;
  ct.header({"n", "subtasks", "eager (ms)", "fly (ms)", "x", "eager (KiB)",
             "fly (KiB)", "mem x", "identical"});
  double construct_speedup_max_n = 0.0, construct_mem_ratio_max_n = 0.0;
  bool construction_identical = true;
  for (const std::int64_t n : {4096L, 16384L}) {
    const int reps = 3;
    std::int64_t sink = 0;
    const double eager_ms = best_ms(reps, [&] {
      const std::vector<Task> tasks =
          build_tasks(n, kConstructionHorizon, /*eager=*/true, nullptr);
      sink += tasks.back().num_subtasks();
    });
    const double fly_ms = best_ms(reps, [&] {
      WindowTableCache cache;
      const std::vector<Task> tasks =
          build_tasks(n, kConstructionHorizon, /*eager=*/false, &cache);
      sink += tasks.back().num_subtasks();
    });
    PFAIR_ASSERT(sink > 0);

    Rational util(0);
    for (std::int64_t i = 0; i < n; ++i) util += Rational(1, kDens[i % 5]);
    const auto procs = static_cast<int>(util.ceil());
    WindowTableCache cache;
    const TaskSystem fly_sys(
        build_tasks(n, kConstructionHorizon, false, &cache), procs);
    const TaskSystem eager_sys(
        build_tasks(n, kConstructionHorizon, true, nullptr), procs);
    const auto eager_bytes = eager_sys.subtask_memory_bytes();
    const auto fly_bytes = fly_sys.subtask_memory_bytes();

    SfqOptions copts;
    copts.horizon_limit = kConstructionHorizon + 8;
    const bool identical = same_sfq(schedule_sfq(fly_sys, copts),
                                    schedule_sfq(eager_sys, copts), fly_sys);
    construction_identical &= identical;

    const double x = eager_ms / std::max(fly_ms, 1e-9);
    const double mem_x = static_cast<double>(eager_bytes) /
                         std::max<double>(static_cast<double>(fly_bytes), 1);
    if (n == 16384) {
      construct_speedup_max_n = x;
      construct_mem_ratio_max_n = mem_x;
    }

    const std::string tag = std::to_string(n);
    ctx.value("construction.eager_ms." + tag, eager_ms);
    ctx.value("construction.fly_ms." + tag, fly_ms);
    ctx.value("construction.speedup." + tag, x);
    ctx.value("construction.eager_bytes." + tag,
              static_cast<double>(eager_bytes));
    ctx.value("construction.fly_bytes." + tag,
              static_cast<double>(fly_bytes));
    ctx.value("construction.mem_ratio." + tag, mem_x);
    for (const auto& [name, ms] :
         {std::pair<const char*, double>{"construction/", fly_ms},
          {"construction_eager/", eager_ms}}) {
      pfair::bench::BenchCase c;
      c.name = std::string(name) + tag;
      c.ns_per_op = ms * 1e6;
      c.iterations = reps;
      ctx.add_case(std::move(c));
    }

    ct.row({cell(n), cell(fly_sys.total_subtasks()), cell(eager_ms, 2),
            cell(fly_ms, 2), cell(x, 1),
            cell(static_cast<std::int64_t>(eager_bytes / 1024)),
            cell(static_cast<std::int64_t>(fly_bytes / 1024)),
            cell(mem_x, 1), identical ? "yes" : "NO"});
  }
  std::cout << ct.str() << "\n";

  // --- Construction from text: parse_task_string(text).build() ---
  std::cout << "\n=== construction from task-file text ===\n\n";
  TextTable tt;
  tt.header({"n", "bytes", "parse+build (ms)", "MB/s"});
  for (const std::int64_t n : {1024L, 4096L}) {
    const std::string text = make_scaling_text(n);
    const int reps = 21;
    std::int64_t sink = 0;
    const double ms = best_ms(reps, [&] {
      sink += parse_task_string(text).build().num_tasks();
    });
    PFAIR_ASSERT(sink == reps * n);
    const double mb_per_s = static_cast<double>(text.size()) / 1e3 / ms;
    const std::string tag = std::to_string(n);
    ctx.value("construction.text_mb_per_s." + tag, mb_per_s);
    pfair::bench::BenchCase c;
    c.name = "construction/text/" + tag;
    c.ns_per_op = ms * 1e6;
    c.iterations = reps;
    ctx.add_case(std::move(c));
    tt.row({cell(n), cell(static_cast<std::int64_t>(text.size())),
            cell(ms, 3), cell(mb_per_s, 1)});
  }
  std::cout << tt.str() << "\n";

  // --- Steady-state cycle fast-forward (hyperperiod skip) ---
  // Over kCycleHorizon = 50 hyperperiods the cyclic drivers simulate a
  // prefix, one cycle, and a tail, and warp over the rest; the full runs
  // (cycle_detect off) are the O(horizon) oracles.  The ff timings feed
  // the perf guard (cycle/ cases) so the compressed path stays fast.
  // Reported beside them, outside `ok`: the cells each ff run stores
  // against the system's subtasks, and minor page faults per ff call.
  std::cout << "\n=== cycle fast-forward (n = 1024, horizon "
            << kCycleHorizon << ") ===\n\n";
  double cycle_sfq_speedup = 0.0, cycle_dvq_speedup = 0.0;
  bool cycle_identical = true, cycle_engaged = true;
  {
    constexpr std::int64_t n = 1024;
    std::vector<Task> tasks =
        build_tasks(n, kCycleHorizon, /*eager=*/false, /*cache=*/nullptr);
    Rational util(0);
    for (const Task& task : tasks) util += task.weight().value();
    const TaskSystem sys(std::move(tasks), static_cast<int>(util.ceil()));
    const int reps = 3;

    SfqOptions fopts;
    fopts.horizon_limit = kCycleHorizon + 8;
    fopts.cycle_detect = false;
    SlotSchedule full(sys);
    const double full_ms =
        best_ms(reps, [&] { full = schedule_sfq(sys, fopts); });
    SfqOptions copts;
    copts.horizon_limit = kCycleHorizon + 8;
    std::optional<CycleSchedule> cyc;
    const double ff_ms =
        best_ms(reps, [&] { cyc.emplace(schedule_sfq_cyclic(sys, copts)); });
    cycle_engaged &= cyc->stats().engaged;
    cycle_identical &=
        same_sfq(full, cyc->materialize(), sys);
    cycle_sfq_speedup = full_ms / std::max(ff_ms, 1e-9);
    const double ff_faults = minor_faults_per_call(
        reps, [&] { cyc.emplace(schedule_sfq_cyclic(sys, copts)); });

    const FullQuantumYield yields;
    DvqOptions dfopts;
    dfopts.horizon_limit = kCycleHorizon + 8;
    dfopts.cycle_detect = false;
    DvqSchedule dfull(sys);
    const double dfull_ms =
        best_ms(reps, [&] { dfull = schedule_dvq(sys, yields, dfopts); });
    DvqOptions dcopts;
    dcopts.horizon_limit = kCycleHorizon + 8;
    std::optional<DvqCycleSchedule> dcyc;
    const double dff_ms = best_ms(
        reps, [&] { dcyc.emplace(schedule_dvq_cyclic(sys, yields, dcopts)); });
    cycle_engaged &= dcyc->stats().engaged;
    cycle_identical &=
        same_dvq(dfull, dcyc->materialize(), sys);
    cycle_dvq_speedup = dfull_ms / std::max(dff_ms, 1e-9);
    const double dff_faults = minor_faults_per_call(reps, [&] {
      dcyc.emplace(schedule_dvq_cyclic(sys, yields, dcopts));
    });
    const auto subtasks = static_cast<double>(sys.total_subtasks());
    const auto sfq_cells = static_cast<double>(cyc->stored().stored_cells());
    const auto dvq_cells = static_cast<double>(dcyc->stored().stored_cells());

    ctx.value("cycle.sfq_full_ms", full_ms);
    ctx.value("cycle.sfq_ff_ms", ff_ms);
    ctx.value("cycle.sfq_speedup", cycle_sfq_speedup);
    ctx.value("cycle.dvq_full_ms", dfull_ms);
    ctx.value("cycle.dvq_ff_ms", dff_ms);
    ctx.value("cycle.dvq_speedup", cycle_dvq_speedup);
    ctx.value("cycle.subtasks", subtasks);
    ctx.value("cycle.sfq_ff_stored_cells", sfq_cells);
    ctx.value("cycle.dvq_ff_stored_cells", dvq_cells);
    ctx.value("cycle.sfq_ff_minor_faults", ff_faults);
    ctx.value("cycle.dvq_ff_minor_faults", dff_faults);
    for (const auto& [name, ms] :
         {std::pair<const char*, double>{"cycle/ff_sfq", ff_ms},
          {"cycle/ff_dvq", dff_ms}}) {
      pfair::bench::BenchCase c;
      c.name = name;
      c.ns_per_op = ms * 1e6;
      c.iterations = reps;
      ctx.add_case(std::move(c));
    }

    TextTable cyct;
    cyct.header({"model", "full (ms)", "ff (ms)", "x", "prefix", "cycle",
                 "skipped", "identical", "stored cells", "of subtasks",
                 "faults/ff"});
    cyct.row({"sfq", cell(full_ms, 2), cell(ff_ms, 2),
              cell(cycle_sfq_speedup, 1), cell(cyc->stats().prefix_slots),
              cell(cyc->stats().cycle_slots), cell(cyc->stats().cycles_skipped),
              cycle_identical ? "yes" : "NO", cell(sfq_cells, 0),
              cell(sfq_cells / subtasks, 3), cell(ff_faults, 1)});
    cyct.row({"dvq", cell(dfull_ms, 2), cell(dff_ms, 2),
              cell(cycle_dvq_speedup, 1), cell(dcyc->stats().prefix_slots),
              cell(dcyc->stats().cycle_slots),
              cell(dcyc->stats().cycles_skipped),
              cycle_identical ? "yes" : "NO", cell(dvq_cells, 0),
              cell(dvq_cells / subtasks, 3), cell(dff_faults, 1)});
    std::cout << cyct.str() << "\n";
  }

  // --- parallel_for grain: auto chunking vs per-index claims ---
  // The auto grain (8 chunks per worker) amortizes the shared cursor;
  // grain = 1 is the pre-default behavior for callers that never tuned
  // it.  Recorded as a before/after pair, not shape-checked (wall-clock
  // ratios of a contended atomic are too noisy to gate on).
  std::cout << "\n=== parallel_for grain (auto vs 1) ===\n\n";
  {
    constexpr std::int64_t kIters = 1 << 19;
    bench::MaxReducer red(std::numeric_limits<std::int64_t>::min());
    const auto body = [&](std::int64_t i) {
      red.raise((i * 2654435761LL) & 0xffff);
    };
    const double one_ms = best_ms(
        3, [&] { global_pool().parallel_for(0, kIters, body, /*grain=*/1); });
    const double auto_ms =
        best_ms(3, [&] { global_pool().parallel_for(0, kIters, body); });
    ctx.value("grain.one_ms", one_ms);
    ctx.value("grain.auto_ms", auto_ms);
    ctx.value("grain.speedup", one_ms / std::max(auto_ms, 1e-9));
    std::cout << kIters << " iterations: grain 1 " << one_ms
              << " ms -> auto grain " << auto_ms << " ms ("
              << one_ms / std::max(auto_ms, 1e-9) << "x)\n";
  }

  // The observer overheads (auditor, metrics, profiler) and the arena
  // leg's ratio to the fast leg are reported above, not checked here:
  // unmodified builds crossed their old bounds (2.5x, 1.5x, 1.05x, 1.15x)
  // in 6 of 50 runs on a shared 4-core box.
  const bool ok = all_identical && construction_identical &&
                  cycle_identical && cycle_engaged && post_cyclic_engaged &&
                  cyclic_64_vs_16 < 2.0 && validity_dvq_vs_sfq <= 2.0 &&
                  recount_dvq_vs_sfq <= 2.0 && stag_vs_dvq_4096 <= 2.0 &&
                  cycle_sfq_speedup >= 5.0 && cycle_dvq_speedup >= 5.0 &&
                  (sfq_speedup_max_n >= 5.0 || dvq_speedup_max_n >= 5.0) &&
                  construct_speedup_max_n >= 5.0 &&
                  construct_mem_ratio_max_n >= 10.0 && audit_clean;
  std::cout << "shape check (bit-identical everywhere incl. arena+scalar "
            << "legs, >=5x sched at n=16384, >=5x cycle fast-forward, "
            << ">=5x construction and >=10x memory at n=16384, cyclic "
            << "post-simulation schedules engaged, cyclic analysis at 64 hp "
            << "< 2x at 16 hp, DVQ validity and recount <= 2x SFQ per "
            << "placement, staggered <= 2x DVQ at n=4096, audit clean): "
            << (ok ? "PASS" : "FAIL") << '\n';
  return ok ? 0 : 1;
}

PFAIR_BENCH_MAIN("scaling", run_bench)
