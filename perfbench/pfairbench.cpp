// pfairbench — the repository benchmark: task text in, validated schedule
// and artifacts out.
//
//   pfairbench --workload NAME --seed N --seconds S --trace 0|1
//              [--describe TEXT] [--spans PATH]
//
// One process, one client thread, closed loop: the next job starts when
// the previous one has returned.  A job takes one generated task system
// through the library's public entry points — parse, build, schedule in
// one or more quantum models, validate, measure tardiness, recount the
// quality counters, export — and fails if any output is wrong (see
// NOTES.md for the exact gate).  The seed picks the inputs; the library
// only ever sees the generated task systems.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop
// with every other job traced: spans from this file around each library
// call, plus the library's own self-profiler, give the per-layer table;
// the untraced half of the pairs measures what the tracing costs.
//
// The last line on stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pfair/pfair.hpp"

namespace {

using namespace pfair;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Layers and spans.

enum class Layer : int {
  kParse,
  kBuild,
  kSfq,
  kCycle,
  kDvq,
  kStag,
  kValidity,
  kTardiness,
  kRecount,
  kExport,
  kObs,
  kTeardown,
};
constexpr int kNumLayers = 12;
constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "io.parse",          "tasks.build",        "sched.sfq",
    "sched.cycle",       "dvq.sim",            "dvq.stag",
    "analysis.validity", "analysis.tardiness", "analysis.recount",
    "io.export",         "obs",                "bench.teardown"};

struct LayerStats {
  std::int64_t calls = 0;
  std::int64_t failures = 0;
  double busy_ns = 0.0;
};

/// One closed span.  `layer == -1` is a job's root span; every layer span
/// of a job is its child (the benchmark calls the layers one after the
/// other, never nested).
struct SpanRecord {
  std::int64_t job = 0;
  int layer = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Everything the traced jobs of one run accumulate.
struct Trace {
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

  Clock::time_point epoch = Clock::now();
  std::array<LayerStats, kNumLayers> layers{};
  std::vector<SpanRecord> spans;
  std::int64_t spans_dropped = 0;
  std::int64_t jobs = 0;
  double job_ns = 0.0;

  // Work counts recorded at the layer boundaries.
  std::int64_t parse_bytes = 0;
  std::int64_t subtask_bytes = 0;
  std::int64_t sfq_placements = 0;
  std::size_t sfq_arena_bytes = 0;
  std::int64_t cycle_runs = 0;
  std::int64_t cycle_engaged = 0;
  std::int64_t cycle_sim_slots = 0;
  std::int64_t cycle_makespan_slots = 0;
  std::int64_t dvq_decisions = 0;
  std::int64_t bytes_out = 0;
  std::int64_t audit_findings = 0;
  double obs_plain_ns = 0.0;

  [[nodiscard]] std::int64_t ns_since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
  }

  void record(std::int64_t job, int layer, Clock::time_point t0,
              Clock::time_point t1) {
    if (spans.size() >= kMaxSpans) {
      ++spans_dropped;
      return;
    }
    spans.push_back({job, layer, ns_since_epoch(t0), ns_since_epoch(t1)});
  }
};

/// Per-job state: the verdict plus the counts the end-to-end metrics sum.
struct JobCtx {
  std::int64_t id = 0;
  Trace* trace = nullptr;  ///< null for an untraced job
  bool ok = true;
  std::string error;
  std::int64_t placements = 0;          ///< validated placements
  std::int64_t quality_placements = 0;  ///< placements the recount covered
  std::int64_t preemptions = 0;
  std::int64_t migrations = 0;
  std::int64_t max_tardiness_ticks = 0;  ///< worst DVQ / staggered result

  void fail(Layer l, const std::string& why) {
    const auto idx = static_cast<std::size_t>(l);
    if (ok) error = std::string(kLayerNames[idx]) + ": " + why;
    ok = false;
    if (trace != nullptr) ++trace->layers[idx].failures;
  }
  void expect(bool cond, Layer l, const char* why) {
    if (!cond) fail(l, why);
  }
};

/// Times one layer call of a traced job; free for an untraced one.  An
/// exception escaping the scope counts as a failure of the layer.
class Span {
 public:
  Span(JobCtx& job, Layer layer)
      : job_(job), layer_(layer), exceptions_(std::uncaught_exceptions()) {
    if (job_.trace != nullptr) start_ = Clock::now();
  }
  ~Span() {
    if (job_.trace == nullptr) return;
    const Clock::time_point end = Clock::now();
    LayerStats& st = job_.trace->layers[static_cast<std::size_t>(layer_)];
    ++st.calls;
    st.busy_ns += std::chrono::duration<double, std::nano>(end - start_).count();
    job_.trace->record(job_.id, static_cast<int>(layer_), start_, end);
    if (std::uncaught_exceptions() > exceptions_) ++st.failures;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  JobCtx& job_;
  Layer layer_;
  int exceptions_;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------------
// Inputs.

constexpr std::array<std::int64_t, 5> kPeriods = {16, 24, 32, 48, 64};
constexpr std::int64_t kHyperperiod = 192;  // lcm of kPeriods

/// One task of a theorem_sweep system: an IS task (possibly with zero
/// jitter) or a GIS task with dropped subtasks.
struct TaskSpec {
  Weight weight;
  bool gis = false;
  std::vector<std::int64_t> offsets;  // IS
  std::int64_t count = 0;             // IS
  std::vector<Task::SubtaskSpec> subtasks;  // GIS
};

struct GisSystemSpec {
  int processors = 0;
  std::vector<TaskSpec> tasks;
  std::uint64_t yield_seed = 0;
};

struct TextSystem {
  std::string text;
  std::uint64_t yield_seed = 0;
};

enum class Workload { kTheoremSweep, kWidePeriodic, kSteadyState, kObserved };
constexpr std::array<std::pair<const char*, Workload>, 4> kWorkloadNames = {{
    {"theorem_sweep", Workload::kTheoremSweep},
    {"wide_periodic", Workload::kWidePeriodic},
    {"steady_state", Workload::kSteadyState},
    {"observed", Workload::kObserved},
}};

struct Input {
  std::vector<GisSystemSpec> gis;   // theorem_sweep
  std::vector<TextSystem> texts;    // the other workloads
  [[nodiscard]] std::size_t size() const {
    return gis.empty() ? texts.size() : gis.size();
  }
};

/// theorem_sweep: (M, weight class) cycles through {2, 4, 8, 8, 16} x
/// {mixed, light, heavy}, so every run holds the same mix; fully loaded,
/// periods dividing 240, horizon 240; half the tasks get IS jitter or GIS
/// drops.  Job time grows with M, so M = 8 appears twice: the median then
/// falls inside the M = 8 cluster and the p90 inside the M = 16 one,
/// rather than in the gap between two clusters.
std::vector<GisSystemSpec> make_gis_pool(std::uint64_t seed) {
  constexpr std::array<int, 5> kProcs = {2, 4, 8, 8, 16};
  constexpr std::array<WeightClass, 3> kClasses = {
      WeightClass::kMixed, WeightClass::kLight, WeightClass::kHeavy};
  constexpr std::size_t kPool = 780;  // 52 of each (M, class) pair
  Rng rng(seed);
  std::vector<GisSystemSpec> pool;
  pool.reserve(kPool);
  for (std::size_t k = 0; k < kPool; ++k) {
    GeneratorConfig cfg;
    cfg.processors = kProcs[k % kProcs.size()];
    cfg.target_util = Rational(cfg.processors);
    cfg.weights = kClasses[k / kProcs.size() % kClasses.size()];
    cfg.horizon = 240;
    cfg.seed = rng.next_u64();
    const TaskSystem base = generate_periodic(cfg);

    GisSystemSpec spec;
    spec.processors = cfg.processors;
    spec.yield_seed = rng.next_u64();
    for (const Task& t : base.tasks()) {
      TaskSpec ts;
      ts.weight = t.weight();
      const std::int64_t kind = rng.uniform(0, 3);  // 0: IS jitter, 1: GIS
      if (kind == 1) {
        ts.gis = true;
        for (std::int64_t s = 0; s < t.num_subtasks(); ++s) {
          if (s > 0 && rng.chance(1, 4)) continue;
          const Subtask sub = t.subtask(s);
          ts.subtasks.push_back({sub.index, sub.theta, -1});
        }
      } else {
        std::int64_t theta = 0;
        for (std::int64_t s = 0; s < t.num_subtasks(); ++s) {
          if (kind == 0 && rng.chance(1, 4)) theta += rng.uniform(0, 2);
          ts.offsets.push_back(theta);
        }
        ts.count = t.num_subtasks();
      }
      spec.tasks.push_back(std::move(ts));
    }
    pool.push_back(std::move(spec));
  }
  return pool;
}

/// A fully loaded synchronous periodic task file over `horizon` slots.
/// The weight multiset depends on `n` alone, so seeds differ only in task
/// order (hence tie-breaks and processor assignment) and yields: light
/// tasks of weight 1/p with p cycling through kPeriods, every 64th task
/// heavy (weight in [1/2, 1) — without them no subtask is ever preempted),
/// and one filler task of period kHyperperiod that brings the total
/// utilization to exactly the processor count.
std::string make_periodic_text(Rng& rng, std::int64_t n,
                               std::int64_t horizon) {
  std::vector<Weight> heavy;
  for (const std::int64_t p : kPeriods) {
    for (std::int64_t e = p / 2; e < p; ++e) heavy.emplace_back(e, p);
  }
  std::vector<Weight> weights;
  weights.reserve(static_cast<std::size_t>(n) + 1);
  std::int64_t util_num = 0;  // in units of 1/kHyperperiod
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    weights.push_back(i % 64 == 63 ? heavy[(k / 64 * 37) % heavy.size()]
                                   : Weight(1, kPeriods[k % kPeriods.size()]));
    util_num += weights.back().e * (kHyperperiod / weights.back().p);
  }
  for (std::size_t i = weights.size(); i > 1; --i) {
    std::swap(weights[i - 1], weights[static_cast<std::size_t>(rng.uniform(
                                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  const std::int64_t procs = (util_num + kHyperperiod - 1) / kHyperperiod;
  if (procs * kHyperperiod > util_num) {
    weights.emplace_back(procs * kHyperperiod - util_num, kHyperperiod);
  }
  std::string text = "processors " + std::to_string(procs) + "\nhorizon " +
                     std::to_string(horizon) + "\n";
  text.reserve(weights.size() * 16 + text.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    text += "task t" + std::to_string(i) + " " + weights[i].str() + "\n";
  }
  return text;
}

/// The pools below step system sizes evenly instead of repeating one
/// size: job times then cover a continuum, so a run's median moves
/// smoothly with the machine's speed instead of jumping between the modes
/// a single job size forms when the speed changes mid-run.
constexpr std::size_t kSizeSteps = 16;

/// wide_periodic / observed: n = n_min + k * n_step for k < kSizeSteps,
/// horizon 96 (half a hyperperiod, so no fast-forward can engage).
std::vector<TextSystem> make_wide_pool(std::uint64_t seed, std::int64_t n_min,
                                       std::int64_t n_step) {
  Rng rng(seed);
  std::vector<TextSystem> pool;
  for (std::size_t k = 0; k < kSizeSteps; ++k) {
    TextSystem ts;
    ts.text = make_periodic_text(
        rng, n_min + static_cast<std::int64_t>(k) * n_step, kHyperperiod / 2);
    ts.yield_seed = rng.next_u64();
    pool.push_back(std::move(ts));
  }
  return pool;
}

/// steady_state: horizons of 16, 32 and 64 hyperperiods in turn, with n
/// scaled so the subtask count steps evenly across the pool (n from 512
/// to 1472 at 16 hyperperiods, a quarter of that at 64).
std::vector<TextSystem> make_steady_pool(std::uint64_t seed) {
  constexpr std::array<std::int64_t, 3> kHyperperiods = {16, 32, 64};
  Rng rng(seed);
  std::vector<TextSystem> pool;
  for (std::size_t k = 0; k < kSizeSteps; ++k) {
    const std::int64_t hp = kHyperperiods[k % kHyperperiods.size()];
    const std::int64_t n = (512 + 64 * static_cast<std::int64_t>(k)) * 16 / hp;
    TextSystem ts;
    ts.text = make_periodic_text(rng, n, hp * kHyperperiod);
    pool.push_back(std::move(ts));
  }
  return pool;
}

Input make_input(Workload w, std::uint64_t seed) {
  Input in;
  switch (w) {
    case Workload::kTheoremSweep:
      in.gis = make_gis_pool(seed);
      break;
    case Workload::kWidePeriodic:
      in.texts = make_wide_pool(seed, 2048, 256);  // n = 2048..5888
      break;
    case Workload::kSteadyState:
      in.texts = make_steady_pool(seed);
      break;
    case Workload::kObserved:
      in.texts = make_wide_pool(seed, 384, 48);  // n = 384..1104
      break;
  }
  return in;
}

// ---------------------------------------------------------------------
// Job legs.  Each wraps one library call per span and checks its output.

BernoulliYield bernoulli_yields(std::uint64_t seed) {
  return BernoulliYield(seed, 1, 2, Time::ticks(kTicksPerSlot / 4),
                        kQuantum - kTick);
}

/// steady_state's deterministic yield: every subtask uses 3/4 quantum, so
/// DVQ desynchronizes yet stays periodic (fast-forward can engage).
FixedYield steady_yields() { return FixedYield(Time::slots_frac(0, 1, 4)); }

/// Reusable working memory: the simulators' bump arenas persist across
/// jobs (filled during set-up), as in a long-running service.
struct Arenas {
  Arena sfq;
  Arena dvq;
};

TaskSystem parse_and_build(JobCtx& job, const std::string& text) {
  std::optional<ParsedSystem> parsed;
  {
    Span s(job, Layer::kParse);
    parsed.emplace(parse_task_string(text));
  }
  if (job.trace != nullptr) {
    job.trace->parse_bytes += static_cast<std::int64_t>(text.size());
  }
  Span s(job, Layer::kBuild);
  TaskSystem sys = parsed->build();
  if (job.trace != nullptr) {
    job.trace->subtask_bytes +=
        static_cast<std::int64_t>(sys.subtask_memory_bytes());
  }
  return sys;
}

template <typename Schedule>
void recount_leg(JobCtx& job, const TaskSystem& sys, const Schedule& sched,
                 bool dvq, const QualityCounters* expected) {
  QualityCounters q;
  {
    Span s(job, Layer::kRecount);
    q = recount_quality(sys, sched);
  }
  if (expected != nullptr) {
    job.expect(q == *expected, Layer::kRecount,
               "quality counters differ from the recount");
  }
  job.quality_placements += sys.total_subtasks();
  job.preemptions += q.preemptions;
  job.migrations += q.migrations;
  if (dvq && job.trace != nullptr) job.trace->dvq_decisions += q.decision_points;
}

/// SFQ-PD² must be complete, valid and free of tardiness.  Works on plain
/// and cycle-compressed schedules; returns whether the schedule is
/// complete (the recount needs that).
template <typename Schedule>
bool check_sfq(JobCtx& job, const TaskSystem& sys, const Schedule& sched,
               Layer sim_layer) {
  job.expect(sched.complete(), sim_layer, "incomplete SFQ schedule");
  if (!sched.complete()) return false;
  {
    Span s(job, Layer::kValidity);
    job.expect(check_slot_schedule(sys, sched).valid(), Layer::kValidity,
               "SFQ validity violation");
  }
  {
    Span s(job, Layer::kTardiness);
    const TardinessSummary t = measure_tardiness(sys, sched);
    job.expect(t.max_ticks == 0 && t.unscheduled == 0, Layer::kTardiness,
               "nonzero SFQ-PD2 tardiness");
  }
  job.placements += sys.total_subtasks();
  return true;
}

/// DVQ / staggered PD²: complete, valid with a one-quantum allowance and
/// tardiness strictly below one quantum (Theorem 3).
template <typename Schedule>
bool check_dvq(JobCtx& job, const TaskSystem& sys, const Schedule& sched,
               Layer sim_layer) {
  job.expect(sched.complete(), sim_layer, "incomplete DVQ schedule");
  if (!sched.complete()) return false;
  {
    Span s(job, Layer::kValidity);
    job.expect(check_dvq_schedule(sys, sched, kQuantum).valid(),
               Layer::kValidity, "DVQ validity violation");
  }
  {
    Span s(job, Layer::kTardiness);
    const TardinessSummary t = measure_tardiness(sys, sched);
    job.expect(t.max_ticks < kTicksPerSlot && t.unscheduled == 0,
               Layer::kTardiness, "tardiness of one quantum or more");
    job.max_tardiness_ticks = std::max(job.max_tardiness_ticks, t.max_ticks);
  }
  job.placements += sys.total_subtasks();
  return true;
}

SlotSchedule sfq_leg(JobCtx& job, const TaskSystem& sys, Arenas& arenas) {
  std::optional<SlotSchedule> sched;
  {
    Span s(job, Layer::kSfq);
    arenas.sfq.reset();
    SfqOptions opts;
    opts.arena = &arenas.sfq;
    sched.emplace(sys);
    schedule_sfq_into(sys, opts, *sched);
  }
  if (job.trace != nullptr) {
    job.trace->sfq_placements += sched->placed_count();
    job.trace->sfq_arena_bytes =
        std::max(job.trace->sfq_arena_bytes, arenas.sfq.high_water_bytes());
  }
  if (check_sfq(job, sys, *sched, Layer::kSfq)) {
    recount_leg(job, sys, *sched, false, nullptr);
  }
  return std::move(*sched);
}

DvqSchedule dvq_leg(JobCtx& job, const TaskSystem& sys, const YieldModel& y,
                    Arenas& arenas) {
  std::optional<DvqSchedule> sched;
  {
    Span s(job, Layer::kDvq);
    arenas.dvq.reset();
    DvqOptions opts;
    opts.arena = &arenas.dvq;
    sched.emplace(schedule_dvq(sys, y, opts));
  }
  if (check_dvq(job, sys, *sched, Layer::kDvq)) {
    recount_leg(job, sys, *sched, true, nullptr);
  }
  return std::move(*sched);
}

void export_leg(JobCtx& job, const TaskSystem& sys, const SlotSchedule& sfq,
                const DvqSchedule& dvq, const std::string& extra = {}) {
  std::int64_t bytes = 0;
  {
    Span s(job, Layer::kExport);
    std::ostringstream os;
    export_slot_schedule(sys, sfq).write(os);
    export_dvq_schedule(sys, dvq).write(os);
    os << extra;
    bytes = static_cast<std::int64_t>(os.tellp());
  }
  job.expect(bytes > 0, Layer::kExport, "empty export");
  if (job.trace != nullptr) job.trace->bytes_out += bytes;
}

/// Order-sensitive digest of every placement, so a job's schedules can be
/// compared against the reference oracles after the timed window without
/// holding copies that would inflate the peak memory measured.
std::uint64_t mix(std::uint64_t h, std::int64_t v) {
  h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  return h;
}

template <typename Schedule, typename Fields>
std::uint64_t digest(const TaskSystem& sys, const Schedule& sched,
                     Fields fields) {
  std::uint64_t h = 0;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      for (const std::int64_t v : fields(sched.placement(SubtaskRef{k, s}))) {
        h = mix(h, v);
      }
    }
  }
  return h;
}

std::uint64_t sfq_digest(const TaskSystem& sys, const auto& sched) {
  return digest(sys, sched, [](const SlotPlacement& p) {
    return std::array<std::int64_t, 2>{p.slot, p.proc};
  });
}

std::uint64_t dvq_digest(const TaskSystem& sys, const auto& sched) {
  return digest(sys, sched, [](const DvqPlacement& p) {
    return std::array<std::int64_t, 3>{p.start.raw_ticks(),
                                       p.cost.raw_ticks(), p.proc};
  });
}

struct Digests {
  std::uint64_t sfq = 0;
  std::uint64_t dvq = 0;
};

TaskSystem build_gis_system(const GisSystemSpec& spec) {
  std::vector<Task> tasks;
  tasks.reserve(spec.tasks.size());
  for (std::size_t k = 0; k < spec.tasks.size(); ++k) {
    const TaskSpec& t = spec.tasks[k];
    std::string name = "T" + std::to_string(k);
    tasks.push_back(t.gis ? Task::gis(std::move(name), t.weight, t.subtasks)
                          : Task::intra_sporadic(std::move(name), t.weight,
                                                 t.offsets, t.count));
  }
  return TaskSystem(std::move(tasks), spec.processors);
}

void job_theorem(JobCtx& job, const GisSystemSpec& spec, Arenas& arenas,
                 std::optional<Digests>* keep) {
  std::optional<TaskSystem> sys;
  {
    Span s(job, Layer::kBuild);
    sys.emplace(build_gis_system(spec));
  }
  if (job.trace != nullptr) {
    job.trace->subtask_bytes +=
        static_cast<std::int64_t>(sys->subtask_memory_bytes());
  }
  const BernoulliYield yields = bernoulli_yields(spec.yield_seed);
  std::optional<SlotSchedule> sfq(sfq_leg(job, *sys, arenas));
  std::optional<DvqSchedule> dvq(dvq_leg(job, *sys, yields, arenas));
  std::optional<DvqSchedule> stag;
  {
    Span s(job, Layer::kStag);
    stag.emplace(schedule_staggered(*sys, yields));
  }
  check_dvq(job, *sys, *stag, Layer::kStag);
  if (keep != nullptr && !keep->has_value()) {
    keep->emplace(Digests{sfq_digest(*sys, *sfq), dvq_digest(*sys, *dvq)});
  }
  Span s(job, Layer::kTeardown);
  stag.reset();
  dvq.reset();
  sfq.reset();
  sys.reset();
}

void job_wide(JobCtx& job, const TextSystem& in, Arenas& arenas) {
  std::optional<TaskSystem> sys(parse_and_build(job, in.text));
  const BernoulliYield yields = bernoulli_yields(in.yield_seed);
  std::optional<SlotSchedule> sfq(sfq_leg(job, *sys, arenas));
  std::optional<DvqSchedule> dvq(dvq_leg(job, *sys, yields, arenas));
  export_leg(job, *sys, *sfq, *dvq);
  Span s(job, Layer::kTeardown);
  dvq.reset();
  sfq.reset();
  sys.reset();
}

/// Makespan of a DVQ schedule in whole slots (a partial last slot counts).
std::int64_t makespan_slots(Time makespan) {
  return (makespan.raw_ticks() + kTicksPerSlot - 1) / kTicksPerSlot;
}

/// Slots a cyclic run actually simulated, derived from the makespan and
/// the skipped region.  DvqCycleSchedule::stats().sim_slots is not used:
/// it reports the automatic run limit minus the skipped slots.
std::int64_t derived_sim_slots(const CycleStats& st, std::int64_t makespan) {
  return makespan - (st.engaged ? st.slots_skipped : 0);
}

void note_cycle(JobCtx& job, const CycleStats& st, std::int64_t makespan) {
  if (job.trace == nullptr) return;
  ++job.trace->cycle_runs;
  if (st.engaged) ++job.trace->cycle_engaged;
  job.trace->cycle_sim_slots += derived_sim_slots(st, makespan);
  job.trace->cycle_makespan_slots += makespan;
}

void job_steady(JobCtx& job, const TextSystem& in, Arenas& arenas) {
  std::optional<TaskSystem> sys(parse_and_build(job, in.text));
  std::optional<CycleSchedule> sfq;
  {
    Span s(job, Layer::kCycle);
    arenas.sfq.reset();
    SfqOptions opts;
    opts.arena = &arenas.sfq;
    sfq.emplace(schedule_sfq_cyclic(*sys, opts));
  }
  note_cycle(job, sfq->stats(), sfq->horizon());
  check_sfq(job, *sys, *sfq, Layer::kCycle);

  const FixedYield yields = steady_yields();
  std::optional<DvqCycleSchedule> dvq;
  {
    Span s(job, Layer::kCycle);
    arenas.dvq.reset();
    DvqOptions opts;
    opts.arena = &arenas.dvq;
    dvq.emplace(schedule_dvq_cyclic(*sys, yields, opts));
  }
  note_cycle(job, dvq->stats(), makespan_slots(dvq->makespan()));
  check_dvq(job, *sys, *dvq, Layer::kCycle);
  Span s(job, Layer::kTeardown);
  dvq.reset();
  sfq.reset();
  sys.reset();
}

/// One observed run of `pfairsim --audit --metrics`: auditor, metrics
/// registry and quality counters attached; the counters must match the
/// offline recount and the auditor must stay clean.
struct Observed {
  MetricsRegistry reg;
  QualityCounters quality;
  std::optional<InvariantAuditor> auditor;
};

void check_audit(JobCtx& job, const Observed& o) {
  job.expect(o.auditor->clean(), Layer::kObs, "auditor finding");
  if (job.trace != nullptr) {
    job.trace->audit_findings += o.auditor->total_findings();
  }
}

/// Runs `schedule(opts)` with `o`'s auditor, registry and counters
/// attached.
template <typename Options, typename Schedule>
auto observed_run(JobCtx& job, const TaskSystem& sys, Observed& o,
                  Schedule schedule) {
  Span s(job, Layer::kObs);
  o.auditor.emplace(sys);
  o.auditor->attach_metrics(o.reg);
  Options opts;
  opts.trace = &*o.auditor;
  opts.metrics = &o.reg;
  opts.quality = &o.quality;
  return schedule(opts);
}

void job_observed(JobCtx& job, const TextSystem& in) {
  std::optional<TaskSystem> sys(parse_and_build(job, in.text));
  const BernoulliYield yields = bernoulli_yields(in.yield_seed);

  Observed osfq;
  std::optional<SlotSchedule> sfq(observed_run<SfqOptions>(
      job, *sys, osfq,
      [&](const SfqOptions& opts) { return schedule_sfq(*sys, opts); }));
  if (check_sfq(job, *sys, *sfq, Layer::kObs)) {
    recount_leg(job, *sys, *sfq, false, &osfq.quality);
  }
  check_audit(job, osfq);

  Observed odvq;
  std::optional<DvqSchedule> dvq(observed_run<DvqOptions>(
      job, *sys, odvq, [&](const DvqOptions& opts) {
        return schedule_dvq(*sys, yields, opts);
      }));
  if (check_dvq(job, *sys, *dvq, Layer::kObs)) {
    recount_leg(job, *sys, *dvq, true, &odvq.quality);
  }
  check_audit(job, odvq);

  std::string snapshots;
  {
    Span s(job, Layer::kExport);
    snapshots = metrics_to_json(osfq.reg.snapshot()) +
                metrics_to_json(odvq.reg.snapshot());
  }
  export_leg(job, *sys, *sfq, *dvq, snapshots);
  Span s(job, Layer::kTeardown);
  dvq.reset();
  sfq.reset();
  sys.reset();
}

/// The unobserved baseline of obs.overhead_x: the same two scheduler
/// calls with nothing attached, on the same input (traced runs only,
/// outside the job's timed window).
double plain_sched_ns(const TextSystem& in) {
  const TaskSystem sys = parse_task_string(in.text).build();
  const BernoulliYield yields = bernoulli_yields(in.yield_seed);
  const Clock::time_point t0 = Clock::now();
  const SlotSchedule sfq = schedule_sfq(sys);
  const DvqSchedule dvq = schedule_dvq(sys, yields);
  const Clock::time_point t1 = Clock::now();
  if (!sfq.complete() || !dvq.complete()) return 0.0;
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

// ---------------------------------------------------------------------
// Post-window correctness checks (excluded from set-up and job times).

/// theorem_sweep: every digested job schedule equals the reference
/// simulator's on the same input.
bool check_references(const Input& in,
                      const std::vector<std::optional<Digests>>& kept) {
  bool ok = true;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (!kept[i].has_value()) continue;
    ++checked;
    const TaskSystem sys = build_gis_system(in.gis[i]);
    const BernoulliYield yields = bernoulli_yields(in.gis[i].yield_seed);
    ok &= kept[i]->sfq == sfq_digest(sys, schedule_sfq_reference(sys)) &&
          kept[i]->dvq == dvq_digest(sys, schedule_dvq_reference(sys, yields));
  }
  std::cout << "reference check: " << checked << " systems, "
            << (ok ? "identical" : "MISMATCH") << "\n";
  return ok && checked > 0;
}

struct QualitySums {
  std::int64_t placements = 0;
  std::int64_t preemptions = 0;
  std::int64_t migrations = 0;
};

/// steady_state: every compressed schedule must equal the full run
/// placement for placement; the full runs' recounts supply the quality
/// metrics (a compressed schedule cannot be recounted without
/// materializing it).
bool check_steady(const Input& in, QualitySums& q) {
  bool ok = true;
  const FixedYield yields = steady_yields();
  for (const TextSystem& ts : in.texts) {
    const TaskSystem sys = parse_task_string(ts.text).build();
    SfqOptions sopts;
    sopts.cycle_detect = false;
    const SlotSchedule full = schedule_sfq(sys, sopts);
    const CycleSchedule cyc = schedule_sfq_cyclic(sys);
    ok &= full.complete() && cyc.stats().engaged &&
          sfq_digest(sys, full) == sfq_digest(sys, cyc);
    DvqOptions dopts;
    dopts.cycle_detect = false;
    const DvqSchedule dfull = schedule_dvq(sys, yields, dopts);
    const DvqCycleSchedule dcyc = schedule_dvq_cyclic(sys, yields);
    ok &= dfull.complete() && dcyc.stats().engaged &&
          dvq_digest(sys, dfull) == dvq_digest(sys, dcyc);
    if (!ok) break;
    for (const QualityCounters& c :
         {recount_quality(sys, full), recount_quality(sys, dfull)}) {
      q.placements += sys.total_subtasks();
      q.preemptions += c.preemptions;
      q.migrations += c.migrations;
    }
  }
  std::cout << "fast-forward check: " << in.texts.size() << " systems, "
            << (ok ? "identical to the full runs" : "MISMATCH") << "\n";
  return ok;
}

/// Pins the derived simulated-slot split on one fixed steady_state-shaped
/// input: n = 4096 tasks of weight 1/p (p cycling through kPeriods,
/// utilization 140.8) on 142 processors, horizon 9600 (50 hyperperiods),
/// full-quantum yields.
bool self_test() {
  std::string text = "processors 142\nhorizon 9600\n";
  for (std::size_t k = 0; k < 4096; ++k) {
    text += "task t" + std::to_string(k) + " 1/" +
            std::to_string(kPeriods[k % kPeriods.size()]) + "\n";
  }
  const TaskSystem sys = parse_task_string(text).build();
  const FullQuantumYield yields;
  const DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, yields);
  const CycleStats& st = cyc.stats();
  const std::int64_t makespan = makespan_slots(cyc.makespan());
  const std::int64_t sim = derived_sim_slots(st, makespan);
  // The last subtask completes at slot 9599, so 9599 - 49 * 192 = 191
  // slots are simulated: the prefix-free base cycle less its idle tail.
  const bool ok = st.engaged && st.prefix_slots == 0 &&
                  st.cycle_slots == kHyperperiod && st.cycles_skipped == 49 &&
                  st.slots_skipped == 9408 && makespan == 9599 && sim == 191;
  std::cout << "self-test: prefix " << st.prefix_slots << ", cycle "
            << st.cycle_slots << ", " << st.cycles_skipped
            << " cycles skipped; simulated " << sim << " of " << makespan
            << " slots (stats().sim_slots reports " << st.sim_slots << "): "
            << (ok ? "ok" : "FAILED") << "\n";
  return ok;
}

// ---------------------------------------------------------------------
// Command line, result assembly and the measurement loop.

struct Args {
  Workload workload = Workload::kTheoremSweep;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string describe = "unknown";
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& err) {
  std::cerr << "pfairbench: " << err
            << "\nusage: pfairbench --workload theorem_sweep|wide_periodic|"
               "steady_state|observed --seed N --seconds S --trace 0|1 "
               "[--describe TEXT] [--spans PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        const auto* w = std::find_if(
            kWorkloadNames.begin(), kWorkloadNames.end(),
            [&](const auto& entry) { return v == entry.first; });
        if (w == kWorkloadNames.end()) usage("unknown workload '" + v + "'");
        a.workload = w->second;
        have_workload = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        a.seconds = std::stod(v);
      } else if (arg == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (arg == "--describe") {
        a.describe = v;
      } else if (arg == "--spans") {
        a.spans_path = v;
      } else {
        usage("unknown option '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + arg);
    }
  }
  if (!have_workload) usage("no --workload");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Core count, SIMD backend, compiler, build type and source revision —
/// results from different boxes are reported but never compared.
std::string box_fingerprint(const Args& a) {
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency()
     << ", \"isa\": \"" << simd::isa_name() << "\", \"compiler\": \""
#if defined(__clang__)
     << "clang " << __clang_version__
#elif defined(__GNUC__)
     << "gcc " << __VERSION__
#else
     << "unknown"
#endif
     << "\", \"build_type\": \"" << PFAIRBENCH_BUILD_TYPE
     << "\", \"describe\": \"" << json_escape(a.describe) << "\"}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Machine speed.

/// A fixed kernel of this file, never of the library: sorting a copy of
/// 16384 seeded 64-bit keys.  Its work never changes, so its time follows
/// the speed of the machine, which on a shared host changes in phases of
/// seconds to minutes — longer than one run can average out (NOTES.md).
class SpeedProbe {
 public:
  /// The probe's median time on the development box.  Times are reported
  /// at the machine speed at which the probe takes this long.
  static constexpr double kRefUs = 1280.0;

  SpeedProbe() : keys_(kKeys), work_(kKeys) {
    Rng rng(0x5eedULL);
    for (std::uint64_t& k : keys_) k = rng.next_u64();
  }

  /// Runs the kernel once; returns its time in microseconds.
  double sample() {
    std::copy(keys_.begin(), keys_.end(), work_.begin());
    const Clock::time_point t0 = Clock::now();
    std::sort(work_.begin(), work_.end());
    const Clock::time_point t1 = Clock::now();
    sink_ = work_[kKeys / 2];
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
  }

 private:
  static constexpr std::size_t kKeys = std::size_t{1} << 14;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> work_;
  volatile std::uint64_t sink_ = 0;
};

/// The probe's samples over one process, and the factor that scales a
/// time measured at a given moment to the reference speed.
class SpeedTrack {
 public:
  /// Samples the probe now.
  void sample() {
    const double us = probe_.sample();
    t_ms_.push_back(ms_between(origin_, Clock::now()));
    us_.push_back(us);
  }

  /// kRefUs over the median of the kNear samples nearest to `t`.  Needs
  /// at least one sample.
  [[nodiscard]] double factor_at(Clock::time_point t) const {
    const std::size_t n = us_.size();
    const std::size_t k = std::min(kNear, n);
    const auto at = static_cast<std::size_t>(
        std::lower_bound(t_ms_.begin(), t_ms_.end(), ms_between(origin_, t)) -
        t_ms_.begin());
    const std::size_t lo = std::min(at > k / 2 ? at - k / 2 : 0, n - k);
    const auto first = us_.begin() + static_cast<std::ptrdiff_t>(lo);
    return SpeedProbe::kRefUs /
           quantile(std::vector<double>(
                        first, first + static_cast<std::ptrdiff_t>(k)),
                    0.5);
  }

  [[nodiscard]] double median_us() const { return quantile(us_, 0.5); }

 private:
  static constexpr std::size_t kNear = 7;
  SpeedProbe probe_;
  Clock::time_point origin_ = Clock::now();
  std::vector<double> t_ms_;
  std::vector<double> us_;
};

/// Runs one job of the workload on input item `item`.
void run_job(Workload w, const Input& in, std::size_t item, JobCtx& job,
             Arenas& arenas, std::vector<std::optional<Digests>>* kept) {
  switch (w) {
    case Workload::kTheoremSweep:
      job_theorem(job, in.gis[item], arenas,
                  kept != nullptr ? &(*kept)[item] : nullptr);
      return;
    case Workload::kWidePeriodic:
      job_wide(job, in.texts[item], arenas);
      return;
    case Workload::kSteadyState:
      job_steady(job, in.texts[item], arenas);
      return;
    case Workload::kObserved:
      job_observed(job, in.texts[item]);
      return;
  }
}

void run_job_checked(Workload w, const Input& in, std::size_t item,
                     JobCtx& job, Arenas& arenas,
                     std::vector<std::optional<Digests>>* kept) {
  try {
    run_job(w, in, item, job, arenas, kept);
  } catch (const std::exception& e) {
    if (job.ok) job.error = e.what();
    job.ok = false;
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void add_layer_metrics(std::vector<Metric>& out, const Trace& tr,
                       const prof::ProfileSnapshot& prof,
                       double traced_p50, double untraced_p50) {
  const double jobs = std::max<double>(1.0, static_cast<double>(tr.jobs));
  const auto layer = [&](Layer l) -> const LayerStats& {
    return tr.layers[static_cast<std::size_t>(l)];
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  double attributed_ns = 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    const LayerStats& st = tr.layers[static_cast<std::size_t>(l)];
    attributed_ns += st.busy_ns;
    const std::string name = kLayerNames[static_cast<std::size_t>(l)];
    if (static_cast<Layer>(l) == Layer::kTeardown) {
      out.push_back({"bench.teardown_ms", st.busy_ns / 1e6 / jobs, "ms"});
      continue;
    }
    out.push_back({name + ".calls", static_cast<double>(st.calls), "count"});
    out.push_back(
        {name + ".failures", static_cast<double>(st.failures), "count"});
    out.push_back({name + (static_cast<Layer>(l) == Layer::kObs
                               ? ".sched_busy_ms"
                               : ".busy_ms"),
                   st.busy_ns / 1e6 / jobs, "ms"});
  }
  const double parse_s = layer(Layer::kParse).busy_ns / 1e9;
  out.push_back({"io.parse.mb_per_s",
                 ratio(static_cast<double>(tr.parse_bytes) / 1e6, parse_s),
                 "MB/s"});
  out.push_back({"tasks.build.subtask_bytes",
                 static_cast<double>(tr.subtask_bytes) / jobs, "B"});
  out.push_back(
      {"tasks.build.cache_tables",
       static_cast<double>(WindowTableCache::global().size()), "count"});
  out.push_back({"sched.sfq.ns_per_placement",
                 ratio(layer(Layer::kSfq).busy_ns,
                       static_cast<double>(tr.sfq_placements)),
                 "ns"});
  out.push_back({"sched.sfq.arena_bytes",
                 static_cast<double>(tr.sfq_arena_bytes), "B"});
  out.push_back({"sched.cycle.engaged_frac",
                 ratio(static_cast<double>(tr.cycle_engaged),
                       static_cast<double>(tr.cycle_runs)),
                 "ratio"});
  out.push_back({"sched.cycle.sim_slot_frac",
                 ratio(static_cast<double>(tr.cycle_sim_slots),
                       static_cast<double>(tr.cycle_makespan_slots)),
                 "ratio"});
  out.push_back({"dvq.sim.ns_per_decision",
                 ratio(layer(Layer::kDvq).busy_ns,
                       static_cast<double>(tr.dvq_decisions)),
                 "ns"});
  out.push_back({"io.export.bytes_out",
                 static_cast<double>(tr.bytes_out) / jobs, "B"});
  out.push_back({"obs.overhead_x",
                 ratio(layer(Layer::kObs).busy_ns, tr.obs_plain_ns), "x"});
  out.push_back({"obs.audit_findings", static_cast<double>(tr.audit_findings),
                 "count"});
  out.push_back(
      {"bench.attributed_frac", ratio(attributed_ns, tr.job_ns), "ratio"});
  out.push_back({"bench.trace_overhead_x", ratio(traced_p50, untraced_p50),
                 "x"});
  const std::array<std::pair<prof::Phase, const char*>, 7> phases = {{
      {prof::Phase::kConstruction, "construction"},
      {prof::Phase::kKeyPrecompute, "key_precompute"},
      {prof::Phase::kCalendarWalk, "calendar_walk"},
      {prof::Phase::kReadyHeap, "ready_heap"},
      {prof::Phase::kDvqEvents, "dvq_events"},
      {prof::Phase::kFingerprint, "fingerprint"},
      {prof::Phase::kWarp, "warp"},
  }};
  for (const auto& [phase, name] : phases) {
    const prof::ProfileSnapshot::PhaseEntry* e = prof.find(phase);
    out.push_back({std::string("prof.") + name + ".self_ms",
                   e != nullptr ? e->self_ns / 1e6 / jobs : 0.0, "ms"});
  }
}

void write_spans(const std::string& path, const Trace& tr) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "pfairbench: cannot write " << path << "\n";
    return;
  }
  f << "{\"traceEvents\": [\n";
  bool first = true;
  char line[192];
  for (const SpanRecord& s : tr.spans) {
    const char* name =
        s.layer < 0 ? "job" : kLayerNames[static_cast<std::size_t>(s.layer)];
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"job\": %lld}}",
                  first ? "" : ",\n", name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.job));
    f << line;
    first = false;
  }
  f << "\n], \"otherData\": {\"spans_dropped\": " << tr.spans_dropped
    << "}}\n";
}

int run(const Args& a) {
  // A p90 needs at least ten samples beyond it.
  constexpr std::int64_t kMinJobs = 100;
  constexpr int kSetupReps = 5;
  constexpr std::size_t kWarmupJobs = 4;
  // Probe samples before each set-up repetition, after the last one and
  // after the window; inside the window, one per kProbeEvery.
  constexpr int kEdgeProbes = 4;
  constexpr auto kProbeEvery = std::chrono::milliseconds(25);

  std::cout << "box: " << box_fingerprint(a) << "\n";

  // Set-up: generate the inputs, fill the window-table cache and the
  // arenas with a few warm-up jobs.  Repeated from a cold cache; the
  // median is reported.
  SpeedTrack speed;
  Arenas arenas;
  Input input;
  std::vector<double> setup_raw_s;
  std::vector<Clock::time_point> setup_mid;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (int k = 0; k < kEdgeProbes; ++k) speed.sample();
    WindowTableCache::global().clear();
    const Clock::time_point t0 = Clock::now();
    input = make_input(a.workload, a.seed);
    for (std::size_t i = 0; i < std::min(kWarmupJobs, input.size()); ++i) {
      JobCtx job;
      run_job_checked(a.workload, input, i, job, arenas, nullptr);
      if (!job.ok) {
        std::cerr << "pfairbench: warm-up job failed: " << job.error << "\n";
        return 1;
      }
    }
    const Clock::time_point t1 = Clock::now();
    setup_raw_s.push_back(ms_between(t0, t1) / 1e3);
    setup_mid.push_back(t0 + (t1 - t0) / 2);
  }
  for (int k = 0; k < kEdgeProbes; ++k) speed.sample();

  std::vector<std::optional<Digests>> kept(
      a.workload == Workload::kTheoremSweep ? input.size() : 0);
  Trace trace;
  prof::Profiler profiler;
  (void)prof::ns_per_tick();  // calibrate outside the window

  std::vector<double> job_ms, traced_ms, untraced_ms;
  std::vector<Clock::time_point> job_mid;
  std::int64_t attempted = 0, failed = 0, placements = 0;
  QualitySums quality;
  std::int64_t max_tardiness_ticks = 0;
  double sum_job_tardiness_q = 0.0;  // of each passing job's worst
  std::string first_error;

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds));
  Clock::time_point end = start;
  Clock::time_point next_probe = start;
  for (std::int64_t i = 0;; ++i) {
    end = Clock::now();
    if (end >= deadline && i >= kMinJobs) break;
    if (end >= next_probe) {
      speed.sample();
      next_probe = Clock::now() + kProbeEvery;
    }
    // Traced runs take each input twice in a row, once traced and once
    // not, alternating which goes first.
    const bool traced = a.trace && ((i % 2) != ((i / 2) % 2));
    const auto item = static_cast<std::size_t>(a.trace ? i / 2 : i) %
                      input.size();
    JobCtx job;
    job.id = i;
    job.trace = traced ? &trace : nullptr;
    std::optional<prof::ProfScope> scope;
    if (traced) scope.emplace(&profiler);
    const Clock::time_point t0 = Clock::now();
    run_job_checked(a.workload, input, item, job, arenas, &kept);
    const Clock::time_point t1 = Clock::now();
    scope.reset();

    const double ms = ms_between(t0, t1);
    ++attempted;
    if (job.ok) {
      placements += job.placements;
      quality.placements += job.quality_placements;
      quality.preemptions += job.preemptions;
      quality.migrations += job.migrations;
      max_tardiness_ticks = std::max(max_tardiness_ticks,
                                     job.max_tardiness_ticks);
      sum_job_tardiness_q += static_cast<double>(job.max_tardiness_ticks) /
                             static_cast<double>(kTicksPerSlot);
    } else {
      ++failed;
      if (first_error.empty()) first_error = job.error;
    }
    job_ms.push_back(ms);
    job_mid.push_back(t0 + (t1 - t0) / 2);
    if (a.trace) (traced ? traced_ms : untraced_ms).push_back(ms);
    if (traced) {
      ++trace.jobs;
      trace.job_ns += ms * 1e6;
      trace.record(i, -1, t0, t1);
      if (a.workload == Workload::kObserved) {
        trace.obs_plain_ns += plain_sched_ns(input.texts[item]);
      }
    }
  }
  const double wall_s = ms_between(start, end) / 1e3;
  const double rss = peak_rss_mib();
  for (int k = 0; k < kEdgeProbes; ++k) speed.sample();

  // The time metrics are reported at the probe's reference speed.
  const auto at_ref = [&](const std::vector<double>& v,
                          const std::vector<Clock::time_point>& mid) {
    std::vector<double> out;
    out.reserve(v.size());
    for (std::size_t k = 0; k < v.size(); ++k) {
      out.push_back(v[k] * speed.factor_at(mid[k]));
    }
    return out;
  };
  const std::vector<double> ref_ms = at_ref(job_ms, job_mid);
  const std::vector<double> setup_s = at_ref(setup_raw_s, setup_mid);
  const auto per_s = [&](const std::vector<double>& ms) {
    return static_cast<double>(placements) * 1e3 /
           std::accumulate(ms.begin(), ms.end(), 0.0);
  };

  if (!first_error.empty()) {
    std::cerr << "pfairbench: first failure: " << first_error << "\n";
  }
  bool correct = failed == 0;
  if (a.workload == Workload::kTheoremSweep) {
    correct &= check_references(input, kept);
  }
  if (a.workload == Workload::kSteadyState) {
    correct &= check_steady(input, quality);
    correct &= self_test();
  }
  std::cout << "jobs: " << attempted << " in " << wall_s << " s ("
            << failed << " failed); worst tardiness "
            << static_cast<double>(max_tardiness_ticks) /
                   static_cast<double>(kTicksPerSlot)
            << " quanta\n";
  std::cout << "raw: {\"job_ms_p50\": " << quantile(job_ms, 0.5)
            << ", \"job_ms_p90\": " << quantile(job_ms, 0.9)
            << ", \"placements_per_s\": " << per_s(job_ms)
            << ", \"setup_s\": " << quantile(setup_raw_s, 0.5)
            << ", \"probe_us\": " << speed.median_us() << "}\n";

  std::vector<Metric> metrics;
  if (!a.trace) {
    const double kplace =
        std::max<double>(1.0, static_cast<double>(quality.placements)) / 1e3;
    metrics = {
        {"job_ms_p50", quantile(ref_ms, 0.5), "ms"},
        {"job_ms_p90", quantile(ref_ms, 0.9), "ms"},
        {"placements_per_s", per_s(ref_ms), "1/s"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mib", rss, "MiB"},
        {"ok_frac",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "ratio"},
        {"tardiness_margin_q",
         1.0 - sum_job_tardiness_q /
                   std::max<double>(1.0, static_cast<double>(attempted - failed)),
         "quanta"},
        {"preempt_per_kplace",
         static_cast<double>(quality.preemptions) / kplace, "count"},
        {"migr_per_kplace", static_cast<double>(quality.migrations) / kplace,
         "count"},
    };
  } else {
    add_layer_metrics(metrics, trace, profiler.snapshot(),
                      quantile(traced_ms, 0.5), quantile(untraced_ms, 0.5));
    if (!a.spans_path.empty()) write_spans(a.spans_path, trace);
  }

  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    os << (k == 0 ? "" : ", ") << "\"" << metrics[k].name
       << "\": {\"value\": " << metrics[k].value << ", \"unit\": \""
       << metrics[k].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "pfairbench: " << e.what() << "\n";
    return 1;
  }
}
