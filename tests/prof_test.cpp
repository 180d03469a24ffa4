// Self-profiling span layer (obs/prof.hpp), histogram algebra
// (obs/metrics.hpp), and the scheduler-quality recount (obs/quality.hpp,
// analysis/recount.hpp) against counts taken from the reference
// schedulers' explain streams.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/recount.hpp"
#include "core/radix_sort.hpp"
#include "core/thread_pool.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "dvq/reference_scheduler.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/prof.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"
#include "sched/reference_scheduler.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

using prof::Phase;
using prof::Profiler;
using prof::ProfScope;
using prof::ProfileSnapshot;

const ProfileSnapshot::PhaseEntry& entry(const ProfileSnapshot& snap,
                                         Phase p) {
  const ProfileSnapshot::PhaseEntry* e = snap.find(p);
  EXPECT_NE(e, nullptr) << "phase " << prof::to_string(p) << " missing";
  static ProfileSnapshot::PhaseEntry zero{};
  return e != nullptr ? *e : zero;
}

TEST(Prof, InactiveThreadRecordsNothing) {
  EXPECT_FALSE(prof::active());
  { PFAIR_PROF_SPAN(kSimulate); }  // no profiler installed: a no-op
  Profiler p;
  const ProfileSnapshot snap = p.snapshot();
  EXPECT_EQ(snap.threads, 0);
  EXPECT_EQ(snap.spans_recorded, 0u);
  EXPECT_EQ(snap.spans_dropped, 0u);
  EXPECT_TRUE(snap.phases.empty());
  EXPECT_TRUE(snap.spans.empty());
}

TEST(Prof, NestedSpansTelescopeExactly) {
  Profiler p;
  {
    ProfScope scope(&p);
    EXPECT_TRUE(prof::active());
    PFAIR_PROF_SPAN(kSimulate);
    { PFAIR_PROF_SPAN(kCalendarWalk); }
    { PFAIR_PROF_SPAN(kReadyHeap); }
  }
  EXPECT_FALSE(prof::active());
  const ProfileSnapshot snap = p.snapshot();
  EXPECT_EQ(snap.threads, 1);
  EXPECT_EQ(snap.spans_recorded, 3u);
  const auto& sim = entry(snap, Phase::kSimulate);
  const auto& cal = entry(snap, Phase::kCalendarWalk);
  const auto& heap = entry(snap, Phase::kReadyHeap);
  EXPECT_EQ(sim.count, 1);
  EXPECT_EQ(cal.count, 1);
  EXPECT_EQ(heap.count, 1);
  // The parent's self time excludes exactly its children's totals, so
  // the tick arithmetic telescopes with no slack.
  EXPECT_EQ(sim.self_ticks,
            sim.total_ticks - cal.total_ticks - heap.total_ticks);
  // Leaves have no children: self == total.
  EXPECT_EQ(cal.self_ticks, cal.total_ticks);
  EXPECT_EQ(heap.self_ticks, heap.total_ticks);
  // Attributed time == the one top-level span's duration.
  const std::int64_t self_sum =
      sim.self_ticks + cal.self_ticks + heap.self_ticks;
  EXPECT_EQ(self_sum, sim.total_ticks);
}

void recurse(int depth) {
  PFAIR_PROF_SPAN(kAnalysis);
  if (depth > 1) recurse(depth - 1);
}

TEST(Prof, RecursiveSamePhaseSelfSumsToOutermostSpan) {
  Profiler p;
  {
    ProfScope scope(&p);
    recurse(5);
  }
  const ProfileSnapshot snap = p.snapshot();
  const auto& e = entry(snap, Phase::kAnalysis);
  EXPECT_EQ(e.count, 5);
  // total double-counts the nesting; self must not.  The sum of self
  // times equals the outermost (depth-0) span's duration exactly.
  ASSERT_EQ(snap.spans.size(), 5u);
  std::uint64_t outer_dur = 0;
  int depth0 = 0;
  for (const prof::SpanRecord& s : snap.spans) {
    EXPECT_EQ(s.phase, Phase::kAnalysis);
    if (s.depth == 0) {
      ++depth0;
      outer_dur = s.dur_ticks;
    }
  }
  EXPECT_EQ(depth0, 1);
  EXPECT_EQ(static_cast<std::uint64_t>(e.self_ticks), outer_dur);
  EXPECT_GE(e.total_ticks, e.self_ticks);
}

TEST(Prof, RingOverflowKeepsNewestAndCountsDrops) {
  Profiler p(/*ring_capacity=*/8);
  {
    ProfScope scope(&p);
    for (int i = 0; i < 100; ++i) {
      PFAIR_PROF_SPAN(kWarp);
    }
  }
  const ProfileSnapshot snap = p.snapshot();
  EXPECT_EQ(snap.spans_recorded, 100u);
  EXPECT_EQ(snap.spans_dropped, 92u);
  EXPECT_EQ(snap.spans.size(), 8u);
  // The per-phase accumulators are exact regardless of ring drops.
  EXPECT_EQ(entry(snap, Phase::kWarp).count, 100);
  // Newest kept: the retained spans are the run's last (and therefore
  // latest-starting) ones, sorted by start tick.
  for (std::size_t i = 1; i < snap.spans.size(); ++i) {
    EXPECT_GE(snap.spans[i].start_ticks, snap.spans[i - 1].start_ticks);
  }
}

TEST(Prof, NullScopeSuspendsAndRestores) {
  Profiler p;
  {
    ProfScope outer(&p);
    { PFAIR_PROF_SPAN(kWarp); }
    {
      ProfScope suspend(nullptr);
      EXPECT_FALSE(prof::active());
      PFAIR_PROF_SPAN(kFingerprint);  // must vanish
    }
    EXPECT_TRUE(prof::active());
    { PFAIR_PROF_SPAN(kWarp); }
  }
  const ProfileSnapshot snap = p.snapshot();
  EXPECT_EQ(entry(snap, Phase::kWarp).count, 2);
  EXPECT_EQ(snap.find(Phase::kFingerprint), nullptr);
  EXPECT_EQ(snap.spans_recorded, 2u);
}

TEST(Prof, ThreadsMergeIntoOneSnapshot) {
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 10;
  Profiler p;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&p] {
      ProfScope scope(&p);
      for (int i = 0; i < kSpansEach; ++i) {
        PFAIR_PROF_SPAN(kSimulate);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const ProfileSnapshot snap = p.snapshot();
  EXPECT_EQ(snap.threads, kThreads);
  EXPECT_EQ(snap.spans_recorded,
            static_cast<std::uint64_t>(kThreads * kSpansEach));
  EXPECT_EQ(entry(snap, Phase::kSimulate).count, kThreads * kSpansEach);
}

TEST(Prof, JsonAndMetricsExpositionsCarryTheSnapshot) {
  Profiler p;
  {
    ProfScope scope(&p);
    PFAIR_PROF_SPAN(kSimulate);
    { PFAIR_PROF_SPAN(kCalendarWalk); }
    { PFAIR_PROF_SPAN(kCalendarWalk); }
  }
  const ProfileSnapshot snap = p.snapshot();

  const JsonValue doc = parse_json(prof::profile_to_json(snap));
  const JsonValue& phases = doc.at("phases");
  EXPECT_EQ(phases.at("simulate").at("count").integer, 1);
  EXPECT_EQ(phases.at("calendar_walk").at("count").integer, 2);
  EXPECT_EQ(doc.at("spans_recorded").integer, 3);
  EXPECT_EQ(doc.at("clock").string, prof::clock_name());

  MetricsRegistry reg;
  prof::publish_profile(snap, reg);
  const MetricsSnapshot m = reg.snapshot();
  EXPECT_EQ(m.counter_or("prof.simulate.count"), 1);
  EXPECT_EQ(m.counter_or("prof.calendar_walk.count"), 2);
  EXPECT_GE(m.counter_or("prof.simulate.total_ns"),
            m.counter_or("prof.simulate.self_ns"));
}

// --- histogram algebra -------------------------------------------------

std::vector<std::int64_t> bucket_vector(const Histogram& h) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(Histogram::kBuckets));
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    v[static_cast<std::size_t>(b)] = h.bucket(b);
  }
  return v;
}

void expect_same(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(bucket_vector(a), bucket_vector(b));
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  Histogram a;
  Histogram b;
  Histogram c;
  for (std::int64_t x : {0, 1, 2, 3, 1000}) a.add(x);
  for (std::int64_t x : {-5, 7, 1 << 20}) b.add(x);
  c.add(std::int64_t{1} << 40);  // c deliberately skewed; b holds x <= 0

  Histogram ab_c;  // (a + b) + c
  ab_c.merge_from(a);
  ab_c.merge_from(b);
  ab_c.merge_from(c);
  Histogram a_bc;  // a + (b + c)
  {
    Histogram bc;
    bc.merge_from(b);
    bc.merge_from(c);
    a_bc.merge_from(a);
    a_bc.merge_from(bc);
  }
  Histogram cba;  // reversed order
  cba.merge_from(c);
  cba.merge_from(b);
  cba.merge_from(a);
  expect_same(ab_c, a_bc);
  expect_same(ab_c, cba);

  // Merging an empty histogram is the identity (sentinel min/max must
  // not leak through).
  Histogram with_empty;
  with_empty.merge_from(a);
  with_empty.merge_from(Histogram{});
  expect_same(with_empty, a);
}

TEST(Histogram, QuantilesMonotoneAndExactAtExtremes) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("q");
  for (std::int64_t i = 1; i <= 1000; ++i) h.add(i * i);
  const HistogramSnapshot snap = reg.snapshot().histograms.at("q");
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0 * 1000.0);
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = snap.quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    prev = v;
  }
  // The median of i^2 over i in [1,1000] is ~500^2; log2 buckets bound
  // the interpolation error to the bucket's value range (one octave).
  const double med = snap.quantile(0.5);
  EXPECT_GT(med, 500.0 * 500.0 / 2.0);
  EXPECT_LT(med, 500.0 * 500.0 * 2.0);
}

TEST(Histogram, ConcurrentAddAndMergeLoseNothing) {
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 20000;
  Histogram src;
  Histogram acc;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&src, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        src.add((t * kPerThread + i) % 4096);
      }
    });
  }
  // One thread repeatedly folds the (moving) source into an accumulator
  // while the adders hammer it: merge_from must stay safe, and a final
  // quiescent merge must observe every sample.
  workers.emplace_back([&src, &acc, &go] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 50; ++i) {
      Histogram scratch;
      scratch.merge_from(src);
      acc.merge_from(scratch);  // exercises concurrent-read safety
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(src.count(), kThreads * kPerThread);
  std::int64_t bucketed = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) bucketed += src.bucket(b);
  EXPECT_EQ(bucketed, src.count());
}

// --- quality counters: the recount against the explain stream ----------

constexpr Policy kAllPolicies[] = {Policy::kEpdf, Policy::kPf, Policy::kPd,
                                   Policy::kPd2};
constexpr int kSeeds = 25;

TaskSystem make_system(int seed) {
  GeneratorConfig cfg;
  cfg.processors = 2 + seed % 5;
  cfg.target_util = Rational(cfg.processors) - Rational(1, 2 + seed % 3);
  cfg.weights = static_cast<WeightClass>(seed % 4);
  cfg.horizon = 12 + (seed % 4) * 8;
  cfg.seed = 4242 + static_cast<std::uint64_t>(seed);
  TaskSystem sys = generate_periodic(cfg);
  const auto s = static_cast<std::uint64_t>(seed);
  switch (seed % 3) {
    case 1:
      sys = add_is_jitter(sys, 3, 1, 3, s);
      break;
    case 2:
      sys = advance_eligibility(sys, 2, 1, 4, s);
      break;
    default:
      break;
  }
  return sys;
}

struct FailureLog {
  std::mutex mu;
  std::atomic<int> count{0};
  std::string first;

  void record(const std::string& what) {
    count.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu);
    if (first.empty()) first = what;
  }
};

// --- recount edge cases ------------------------------------------------

QualityCounters counters(std::int64_t decisions, std::int64_t preemptions,
                         std::int64_t migrations, std::int64_t idle,
                         std::vector<std::int64_t> per_proc) {
  QualityCounters q;
  q.decision_points = decisions;
  q.preemptions = preemptions;
  q.migrations = migrations;
  q.idle_slots = idle;
  for (const std::int64_t s : per_proc) q.context_switches += s;
  q.per_proc_switches = std::move(per_proc);
  return q;
}

TEST(Recount, DvqEqualStartsOnDifferentProcessors) {
  // A and B start together on both processors, then swap processors at
  // the next quantum: two migrations, one switch per processor.
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 1), 2));
  tasks.push_back(Task::periodic("B", Weight(1, 1), 2));
  const TaskSystem sys(std::move(tasks), 2);
  DvqSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, Time::slots(0), kQuantum, 0);
  sched.place(SubtaskRef{1, 0}, Time::slots(0), kQuantum, 1);
  sched.place(SubtaskRef{0, 1}, Time::slots(1), kQuantum, 1);
  sched.place(SubtaskRef{1, 1}, Time::slots(1), kQuantum, 0);
  // Instants: readiness {0, 1}; completions <= last start {1}.
  EXPECT_EQ(recount_quality(sys, sched), counters(2, 0, 2, 0, {1, 1}));
}

TEST(Recount, IdleGapsKeepThePreviousOccupant) {
  // Processor 0 runs A, idles, runs A again (no switch), then B (one
  // switch).
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 3), 6));  // e = 0, 3
  tasks.push_back(Task::periodic("B", Weight(1, 6), 6));  // e = 0
  const TaskSystem sys(std::move(tasks), 1);

  SlotSchedule slots(sys);
  slots.place(SubtaskRef{0, 0}, 0, 0);
  slots.place(SubtaskRef{0, 1}, 3, 0);
  slots.place(SubtaskRef{1, 0}, 5, 0);
  // Six slot decisions, three placements: three idle quanta.
  EXPECT_EQ(recount_quality(sys, slots), counters(6, 0, 0, 3, {1}));

  DvqSchedule dvq(sys);
  dvq.place(SubtaskRef{0, 0}, Time::slots(0), kQuantum, 0);
  dvq.place(SubtaskRef{0, 1}, Time::slots(3), kQuantum, 0);
  dvq.place(SubtaskRef{1, 0}, Time::slots(5), kQuantum, 0);
  // Instants: readiness {0, 3}; completions <= 5 {1, 4}.  The processor
  // is free and unfilled at 1 and 4.
  EXPECT_EQ(recount_quality(sys, dvq), counters(4, 0, 0, 2, {1}));
}

TEST(Recount, SingleSubtaskSystem) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("solo", Weight(1, 4), 4));
  const TaskSystem sys(std::move(tasks), 3);
  ASSERT_EQ(sys.total_subtasks(), 1);

  SfqOptions sopts;
  QualityCounters slive;
  sopts.quality = &slive;
  const SlotSchedule slots = schedule_sfq(sys, sopts);
  EXPECT_EQ(recount_quality(sys, slots), counters(1, 0, 0, 2, {0, 0, 0}));
  EXPECT_EQ(recount_quality(sys, slots), slive);

  const FullQuantumYield full;
  DvqOptions dopts;
  QualityCounters dlive;
  dopts.quality = &dlive;
  const DvqSchedule dvq = schedule_dvq(sys, full, dopts);
  EXPECT_EQ(recount_quality(sys, dvq), counters(1, 0, 0, 2, {0, 0, 0}));
  EXPECT_EQ(recount_quality(sys, dvq), dlive);
}

// Migrations, preemptions and context switches pinned on small
// schedules, down to the model comparison bench_switching (X9) reports.
// A preemption is a subtask that could have run back-to-back with its
// predecessor but did not (the former "job break").

TEST(Switching, HandBuiltSlotSchedule) {
  // Task A (1/1) on alternating processors.
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(4, 4), 4).with_early_release());
  const TaskSystem sys(std::move(tasks), 2);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  sched.place(SubtaskRef{0, 1}, 1, 1);  // migration
  sched.place(SubtaskRef{0, 2}, 2, 1);
  sched.place(SubtaskRef{0, 3}, 4, 0);  // migration + preemption (gap)
  const QualityCounters q = recount_quality(sys, sched);
  EXPECT_TRUE(sched.complete());
  EXPECT_EQ(q.migrations, 2);
  EXPECT_EQ(q.preemptions, 1);
  // Each processor only ever ran task A: no context switches.
  EXPECT_EQ(q.context_switches, 0);
}

TEST(Switching, ContextSwitchesCountOccupantChanges) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 4));
  tasks.push_back(Task::periodic("B", Weight(1, 2), 4));
  const TaskSystem sys(std::move(tasks), 1);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  sched.place(SubtaskRef{1, 0}, 1, 0);  // A -> B
  sched.place(SubtaskRef{0, 1}, 2, 0);  // B -> A
  sched.place(SubtaskRef{1, 1}, 3, 0);  // A -> B; B_2 ready since 2
  const QualityCounters q = recount_quality(sys, sched);
  EXPECT_EQ(q.context_switches, 3);
  EXPECT_EQ(q.migrations, 0);
  EXPECT_EQ(q.preemptions, 1);
}

TEST(Switching, DvqBackToBackIsNoBreak) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(2, 2), 2).with_early_release());
  const TaskSystem sys(std::move(tasks), 1);
  const FixedYield yields(Time::ticks(kTicksPerSlot / 2));
  const DvqSchedule dvq = schedule_dvq(sys, yields);
  const QualityCounters q = recount_quality(sys, dvq);
  EXPECT_EQ(q.migrations, 0);
  EXPECT_EQ(q.preemptions, 0);  // T_2 starts the instant T_1 yields
  EXPECT_EQ(q.context_switches, 0);
}

TEST(Switching, DvqReducesJobBreaksVsSfq) {
  // With early release and early yields, DVQ runs a job's subtasks
  // back-to-back where SFQ must wait for the next boundary.
  GeneratorConfig cfg;
  cfg.processors = 2;
  cfg.target_util = Rational(2);
  cfg.weights = WeightClass::kHeavy;
  cfg.horizon = 20;
  cfg.seed = 12;
  const TaskSystem sys = generate_periodic(cfg).with_early_release();
  const FixedYield yields(Time::ticks(kTicksPerSlot / 2));
  const SlotSchedule sfq_sched = schedule_sfq(sys);
  const DvqSchedule dvq_sched = schedule_dvq(sys, yields);
  ASSERT_TRUE(sfq_sched.complete());
  ASSERT_TRUE(dvq_sched.complete());
  const QualityCounters sfq = recount_quality(sys, sfq_sched);
  const QualityCounters dvq = recount_quality(sys, dvq_sched);
  EXPECT_EQ(sfq.migrations, 22);
  EXPECT_EQ(sfq.preemptions, 17);
  EXPECT_EQ(sfq.context_switches, 30);
  EXPECT_EQ(dvq.migrations, 7);
  EXPECT_EQ(dvq.preemptions, 3);
  EXPECT_EQ(dvq.context_switches, 12);
  EXPECT_LE(dvq.preemptions, sfq.preemptions);
}

// 200 seeded systems x 4 policies x both models.  Sizes cycle from
// theorem-sweep scale (a few hundred to ~2k subtasks) up to wide systems
// (~8k subtasks), so the recount's sorts run on both sides of the radix
// threshold (kRadixSortMin).  The sparse slot fallback is covered by
// Validity.FarOutSlotTakesTheSparsePath.
TaskSystem sized_system(int seed) {
  GeneratorConfig cfg;
  const bool wide = seed % 20 == 19;
  cfg.processors = wide ? 48 : 2 + seed % 15;
  cfg.target_util = Rational(cfg.processors) - Rational(1, 2 + seed % 3);
  cfg.weights = wide ? WeightClass::kLight : static_cast<WeightClass>(seed % 4);
  cfg.horizon = wide ? 96 : 24 + (seed % 5) * 24;
  cfg.seed = 77000 + static_cast<std::uint64_t>(seed);
  TaskSystem sys = generate_periodic(cfg);
  const auto s = static_cast<std::uint64_t>(seed);
  switch (seed % 3) {
    case 1:
      sys = add_is_jitter(sys, 3, 1, 3, s);
      break;
    case 2:
      sys = drop_subtasks(sys, 1, 4, s);
      break;
    default:
      break;
  }
  return sys;
}

// A run's explain stream reports every decision instant, placement,
// migration, preemption and idle processor.  Counting the five
// QualityCounters fields off that stream shares no code with the recount
// (analysis/recount*.cpp), so it is the recount's oracle:
//   * decision points: kSlotBegin / kEventBegin events;
//   * migrations: kMigrate events;
//   * preemptions: kPreempt events (SFQ: a task that ran last slot and is
//     denied in this one; DVQ: a successor ready at its predecessor's
//     completion and denied then);
//   * idle: the sum of kProcIdle details;
//   * context switches: each processor's last occupant over the kPlace
//     events (total and per processor).
class QualityFromEvents final : public TraceSink {
 public:
  explicit QualityFromEvents(const TaskSystem& sys)
      : occupant_(static_cast<std::size_t>(sys.processors()), -1) {
    q_.per_proc_switches.assign(static_cast<std::size_t>(sys.processors()),
                                0);
  }

  [[nodiscard]] TraceEventMask event_mask() const override {
    return trace_mask_of(TraceEventKind::kSlotBegin) |
           trace_mask_of(TraceEventKind::kEventBegin) |
           trace_mask_of(TraceEventKind::kPlace) |
           trace_mask_of(TraceEventKind::kMigrate) |
           trace_mask_of(TraceEventKind::kPreempt) |
           trace_mask_of(TraceEventKind::kProcIdle);
  }

  void on_event(const TraceEvent& e) override {
    switch (e.kind) {
      case TraceEventKind::kSlotBegin:
      case TraceEventKind::kEventBegin:
        ++q_.decision_points;
        break;
      case TraceEventKind::kMigrate:
        ++q_.migrations;
        break;
      case TraceEventKind::kPreempt:
        ++q_.preemptions;
        break;
      case TraceEventKind::kProcIdle:
        q_.idle_slots += e.detail;
        break;
      case TraceEventKind::kPlace: {
        const auto p = static_cast<std::size_t>(e.proc);
        if (occupant_[p] >= 0 && occupant_[p] != e.subject.task) {
          ++q_.context_switches;
          ++q_.per_proc_switches[p];
        }
        occupant_[p] = e.subject.task;
        break;
      }
      default:
        break;
    }
  }

  [[nodiscard]] const QualityCounters& counts() const { return q_; }

 private:
  QualityCounters q_;
  std::vector<std::int32_t> occupant_;
};

/// The systems both oracle tests run: make_system's seeds and
/// sized_system's, each with its own yield seed, under every policy.
/// Calls check(sys, policy, yields, tag).  Asserts the sized systems land
/// on both sides of the recount's radix threshold (kRadixSortMin).
template <class Check>
void for_each_oracle_case(Check check) {
  std::atomic<int> above{0}, below{0};
  constexpr int kSized = 200;
  global_pool().parallel_for(0, (kSeeds + kSized) * 4, [&](std::int64_t i) {
    const int c = static_cast<int>(i / 4);
    const Policy policy = kAllPolicies[i % 4];
    const bool sized = c >= kSeeds;
    const int seed = sized ? c - kSeeds : c;
    const TaskSystem sys = sized ? sized_system(seed) : make_system(seed);
    const auto s = static_cast<std::uint64_t>(seed);
    const BernoulliYield yields =
        sized ? BernoulliYield(s * 31 + 7, 1, 2, kTick, kQuantum - kTick)
              : BernoulliYield(s * 7919 + 3, 1, 3, kTick, kQuantum - kTick);
    if (sized && policy == Policy::kPd2) {
      (static_cast<std::size_t>(sys.total_subtasks()) >= kRadixSortMin
           ? above
           : below)
          .fetch_add(1, std::memory_order_relaxed);
    }
    check(sys, policy, yields,
          std::string(sized ? "sized" : "seed") + " " + std::to_string(seed) +
              " " + to_string(policy));
  });
  EXPECT_GT(above.load(), 20);
  EXPECT_GT(below.load(), 20);
}

// Both oracle tests count each run's stream on the fast path and on the
// reference scheduler.
TEST(Quality, SfqExplainStreamCountsMatchRecount) {
  FailureLog failures;
  std::atomic<int> compared{0};
  for_each_oracle_case([&](const TaskSystem& sys, Policy policy,
                           const YieldModel&, const std::string& tag) {
    for (const bool reference : {false, true}) {
      QualityFromEvents events(sys);
      SfqOptions opts;
      opts.policy = policy;
      opts.trace = &events;
      const SlotSchedule sched = reference ? schedule_sfq_reference(sys, opts)
                                           : schedule_sfq(sys, opts);
      if (!sched.complete()) return;  // the recount needs a full schedule
      compared.fetch_add(1, std::memory_order_relaxed);
      const QualityCounters recount = recount_quality(sys, sched);
      if (events.counts() != recount) {
        failures.record(tag + (reference ? " reference" : " fast") +
                        ": events " + quality_to_string(events.counts()) +
                        " vs recount " + quality_to_string(recount));
      }
    }
  });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
  EXPECT_GT(compared.load(), 1400);
}

TEST(Quality, DvqExplainStreamCountsMatchRecount) {
  // Every cost one tick short of a quantum leaves a processor idle for
  // exactly one tick before the next slot boundary, a gap the seeded
  // Bernoulli costs almost never produce.
  const FixedYield one_tick_short(kTick);
  FailureLog failures;
  std::atomic<int> compared{0};
  for_each_oracle_case([&](const TaskSystem& sys, Policy policy,
                           const YieldModel& yields, const std::string& tag) {
    const YieldModel* const models[] = {&yields, &one_tick_short};
    for (const YieldModel* y : models) {
      for (const bool reference : {false, true}) {
        QualityFromEvents events(sys);
        DvqOptions opts;
        opts.policy = policy;
        opts.trace = &events;
        const DvqSchedule sched =
            reference ? schedule_dvq_reference(sys, *y, opts)
                      : schedule_dvq(sys, *y, opts);
        if (!sched.complete()) continue;
        compared.fetch_add(1, std::memory_order_relaxed);
        const QualityCounters recount = recount_quality(sys, sched);
        if (events.counts() != recount) {
          failures.record(tag + (y == &yields ? "" : " one tick short") +
                          (reference ? " reference" : " fast") +
                          ": events " + quality_to_string(events.counts()) +
                          " vs recount " + quality_to_string(recount));
        }
      }
    }
  });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
  EXPECT_GT(compared.load(), 2800);
}

// A run cut short by horizon_limit reports no quality: the recount needs
// a complete schedule.  The caller's counters stay untouched and the
// three quality metrics read 0 (registered, not missing), with and
// without an explain sink, in both models.
TEST(Quality, TruncatedRunsReportNoQuality) {
  const TaskSystem sys = make_system(0);
  const FullQuantumYield full;
  QualityCounters untouched;
  untouched.preemptions = 7;
  const auto expect_none = [&](const MetricsRegistry& reg,
                               const QualityCounters& q,
                               const std::string& tag) {
    EXPECT_EQ(q, untouched) << tag;
    const MetricsSnapshot snap = reg.snapshot();
    for (const char* name :
         {sched_metrics::kPreemptions, sched_metrics::kMigrations,
          sched_metrics::kIdleQuanta}) {
      EXPECT_EQ(snap.counter_or(name, -1), 0) << tag << " " << name;
    }
  };
  for (const bool explain : {false, true}) {
    const std::string path = explain ? "explain" : "fast";
    // A RingBufferSink asks for every event kind, explanations included.
    RingBufferSink ring(1 << 12);
    TraceSink* const sink = explain ? &ring : nullptr;
    {
      MetricsRegistry reg;
      QualityCounters q = untouched;
      SfqOptions opts;
      opts.horizon_limit = 2;
      opts.trace = sink;
      opts.metrics = &reg;
      opts.quality = &q;
      ASSERT_FALSE(schedule_sfq(sys, opts).complete()) << path;
      expect_none(reg, q, path + " sfq");
    }
    {
      MetricsRegistry reg;
      QualityCounters q = untouched;
      SfqOptions opts;
      opts.horizon_limit = 2;
      opts.trace = sink;
      opts.metrics = &reg;
      opts.quality = &q;
      SlotSchedule out(sys);
      schedule_sfq_into(sys, opts, out);
      ASSERT_FALSE(out.complete()) << path;
      expect_none(reg, q, path + " sfq_into");
    }
    {
      MetricsRegistry reg;
      QualityCounters q = untouched;
      DvqOptions opts;
      opts.horizon_limit = 2;
      opts.trace = sink;
      opts.metrics = &reg;
      opts.quality = &q;
      ASSERT_FALSE(schedule_dvq(sys, full, opts).complete()) << path;
      expect_none(reg, q, path + " dvq");
    }
  }
}

// --- batched histogram samples ------------------------------------------

TEST(Histogram, BatchMergeEqualsPerSampleAdds) {
  Histogram direct, batched;
  HistogramBatch batch;
  for (const std::int64_t x : {0L, 1L, 5L, 5L, 1000L, 7L, 1L << 40, 3L}) {
    direct.add(x);
    batch.add(x);
  }
  batched.merge_from(batch);
  EXPECT_EQ(batched.count(), direct.count());
  EXPECT_EQ(batched.sum(), direct.sum());
  EXPECT_EQ(batched.min(), direct.min());
  EXPECT_EQ(batched.max(), direct.max());
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(batched.bucket(b), direct.bucket(b)) << "bucket " << b;
  }
  batch.clear();
  EXPECT_TRUE(batch.empty());
  batched.merge_from(batch);  // an empty batch changes nothing
  EXPECT_EQ(batched.count(), direct.count());
}

}  // namespace
}  // namespace pfair
