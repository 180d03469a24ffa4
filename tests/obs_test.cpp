// Tests for the observability layer: trace sinks, metrics, and the
// guarantee that instrumentation never changes a schedule.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>
#include <vector>

#include "analysis/recount.hpp"
#include "analysis/tardiness.hpp"
#include "core/assert.hpp"
#include "core/thread_pool.hpp"
#include "decision_log.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "dvq/dvq_simulator.hpp"
#include "dvq/reference_scheduler.hpp"
#include "io/json.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sched/reference_scheduler.hpp"
#include "sched/sfq_scheduler.hpp"
#include "sched/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

TraceEvent make_event(std::int64_t detail) {
  TraceEvent e;
  e.kind = TraceEventKind::kReadySet;
  e.at = Time::slots(detail);
  e.detail = detail;
  return e;
}

TEST(RingBufferSink, KeepsNewestAndCountsDrops) {
  RingBufferSink sink(4);
  for (std::int64_t i = 0; i < 10; ++i) sink.on_event(make_event(i));
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const std::vector<TraceEvent> got = sink.snapshot();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].detail, static_cast<std::int64_t>(6 + i));
  }
}

TEST(RingBufferSink, PartialFill) {
  RingBufferSink sink(8);
  for (std::int64_t i = 0; i < 3; ++i) sink.on_event(make_event(i));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
  const std::vector<TraceEvent> got = sink.snapshot();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.front().detail, 0);
  EXPECT_EQ(got.back().detail, 2);
}

TEST(JsonlSink, OneParsableObjectPerLine) {
  std::ostringstream os;
  JsonlSink sink(os);
  const TaskSystem sys = fig6_system();
  SfqOptions opts;
  opts.trace = &sink;
  (void)schedule_sfq(sys, opts);
  EXPECT_GT(sink.lines(), 0u);

  std::istringstream in(os.str());
  std::string line;
  std::uint64_t n = 0;
  std::uint64_t places = 0;
  while (std::getline(in, line)) {
    ++n;
    const JsonValue v = parse_json(line);
    ASSERT_TRUE(v.is(JsonValue::Kind::kObject)) << line;
    ASSERT_NE(v.find("k"), nullptr) << line;
    ASSERT_NE(v.find("t"), nullptr) << line;
    if (v.at("k").string == "place") ++places;
  }
  EXPECT_EQ(n, sink.lines());
  // Every subtask of the feasible Fig. 6 system is placed exactly once.
  EXPECT_EQ(places, static_cast<std::uint64_t>(sys.total_subtasks()));
}

TEST(JsonlSink, DvqPlaceEventsMatchPlacements) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 8));
  std::ostringstream os;
  JsonlSink sink(os);
  DvqOptions opts;
  opts.trace = &sink;
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields, opts);

  std::int64_t placed = 0;
  for (std::int32_t k = 0; k < sc.system.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sc.system.task(k).num_subtasks(); ++s) {
      if (sched.placement(SubtaskRef{k, s}).placed) ++placed;
    }
  }
  std::istringstream in(os.str());
  std::string line;
  std::int64_t places = 0;
  while (std::getline(in, line)) {
    if (parse_json(line).at("k").string == "place") ++places;
  }
  EXPECT_EQ(places, placed);
}

TEST(Metrics, CounterSumsStripesAcrossThreads) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.count");
  constexpr std::int64_t kN = 20000;
  global_pool().parallel_for(
      0, kN, [&](std::int64_t) { c.add(); }, 64);
  EXPECT_EQ(c.value(), kN);
  EXPECT_EQ(reg.snapshot().counter_or("test.count"), kN);
}

TEST(Metrics, HistogramShape) {
  Histogram h;
  h.add(0);
  h.add(1);
  h.add(5);
  h.add(1024);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1030);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1024);
  EXPECT_EQ(h.bucket(0), 1);   // x <= 0
  EXPECT_EQ(h.bucket(1), 1);   // 1
  EXPECT_EQ(h.bucket(3), 1);   // 4..7
  EXPECT_EQ(h.bucket(11), 1);  // 1024..2047
}

TEST(Metrics, HistogramEdgeCases) {
  Histogram h;
  h.add(0);
  h.add(-5);  // negatives share bucket 0 with zero
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 0);

  // Powers of two land in the bucket of their bit-width: 2^(b-1) is the
  // smallest value in bucket b.
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  EXPECT_EQ(h.bucket(1), 1);  // {1}
  EXPECT_EQ(h.bucket(2), 2);  // {2, 3}
  EXPECT_EQ(h.bucket(3), 1);  // {4}

  // INT64_MAX has bit-width 63 and must not overflow the bucket array.
  h.add(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.bucket(63), 1);
  EXPECT_EQ(h.max(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.count(), 7);
}

TEST(Metrics, HistogramConcurrentAddsSumExactly) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("conc");
  constexpr std::int64_t kN = 20000;
  global_pool().parallel_for(
      0, kN, [&](std::int64_t i) { h.add(i % 7); }, 64);
  EXPECT_EQ(h.count(), kN);
  std::int64_t expected_sum = 0;
  for (std::int64_t i = 0; i < kN; ++i) expected_sum += i % 7;
  EXPECT_EQ(h.sum(), expected_sum);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 6);
  // Bucket totals across all stripes reconcile with the count.
  std::int64_t bucketed = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) bucketed += h.bucket(b);
  EXPECT_EQ(bucketed, kN);
}

// A batch of n equal samples is indistinguishable from n single adds.
TEST(Metrics, HistogramAddRepeatedMatchesSingleAdds) {
  Histogram batched;
  Histogram single;
  for (const std::int64_t x : {0, 5, 1000}) {
    batched.add_repeated(x, 3);
    for (int i = 0; i < 3; ++i) single.add(x);
  }
  batched.add_repeated(7, 0);  // an empty batch is a no-op
  EXPECT_EQ(batched.count(), single.count());
  EXPECT_EQ(batched.sum(), single.sum());
  EXPECT_EQ(batched.min(), single.min());
  EXPECT_EQ(batched.max(), single.max());
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(batched.bucket(b), single.bucket(b)) << "bucket " << b;
  }
}

TEST(Metrics, RegistryHandlesAreStableAndSnapshotSerializes) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  EXPECT_EQ(&a, &reg.counter("a"));
  a.add(3);
  reg.gauge("g").set(7);
  reg.histogram("h").add(42);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 3);
  EXPECT_EQ(snap.gauges.at("g"), 7);
  EXPECT_EQ(snap.histograms.at("h").count, 1);

  const JsonValue v = parse_json(metrics_to_json(snap, 2));
  EXPECT_EQ(v.at("counters").at("a").integer, 3);
  EXPECT_EQ(v.at("gauges").at("g").integer, 7);
  EXPECT_EQ(v.at("histograms").at("h").at("count").integer, 1);
}

TEST(Metrics, ScopeTimerRecordsOneSample) {
  MetricsRegistry reg;
  {
    ScopeTimer t(reg, "timed.ns");
  }
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.histograms.at("timed.ns").count, 1);
  EXPECT_GE(snap.histograms.at("timed.ns").min, 0);
}

TEST(Probe, DisabledProbeIsInert) {
  SchedProbe probe;
  EXPECT_FALSE(probe.enabled());
  // None of these may touch memory or crash without a sink/registry.
  probe.begin_decision(TraceEventKind::kSlotBegin, Time::slots(0));
  probe.place(Time::slots(0), SubtaskRef{0, 0}, 0, 0);
  probe.end_decision();
}

TEST(SfqSimulator, TracingDoesNotChangeTheSchedule) {
  const TaskSystem sys = fig6_system();
  const SlotSchedule plain = schedule_sfq(sys);

  RingBufferSink sink(1 << 16);
  MetricsRegistry reg;
  SfqOptions opts;
  opts.trace = &sink;
  opts.metrics = &reg;
  const SlotSchedule traced = schedule_sfq(sys, opts);

  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      EXPECT_EQ(plain.placement(ref).slot, traced.placement(ref).slot);
      EXPECT_EQ(plain.placement(ref).proc, traced.placement(ref).proc);
    }
  }
  EXPECT_GT(sink.total(), 0u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_GT(snap.counter_or(sched_metrics::kInvocations), 0);
  EXPECT_EQ(snap.counter_or(sched_metrics::kPlacements),
            sys.total_subtasks());
}

TEST(DvqSimulator, TracingDoesNotChangeTheSchedule) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 8));
  const DvqSchedule plain = schedule_dvq(sc.system, *sc.yields);

  RingBufferSink sink(1 << 16);
  MetricsRegistry reg;
  DvqOptions opts;
  opts.trace = &sink;
  opts.metrics = &reg;
  const DvqSchedule traced = schedule_dvq(sc.system, *sc.yields, opts);

  for (std::int32_t k = 0; k < sc.system.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sc.system.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const DvqPlacement& a = plain.placement(ref);
      const DvqPlacement& b = traced.placement(ref);
      EXPECT_EQ(a.placed, b.placed);
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.cost, b.cost);
      EXPECT_EQ(a.proc, b.proc);
    }
  }
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_GT(snap.counter_or(sched_metrics::kInvocations), 0);
  EXPECT_GT(snap.counter_or(sched_metrics::kMigrations), 0);
}

// A decision log must come out identical alone or teed alongside
// another sink.
TEST(DvqSimulator, DecisionSinkAloneMatchesTeeSink) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 8));

  DecisionLog alone;
  DvqOptions single;
  single.trace = &alone;
  const DvqSchedule base = schedule_dvq(sc.system, *sc.yields, single);
  ASSERT_FALSE(alone.decisions().empty());

  DecisionLog teed;
  RingBufferSink ring(1 << 16);
  TeeSink tee(&teed, &ring);
  DvqOptions both;
  both.trace = &tee;
  const DvqSchedule mixed = schedule_dvq(sc.system, *sc.yields, both);
  EXPECT_GT(ring.total(), 0u);
  for (std::int32_t k = 0; k < sc.system.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sc.system.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      EXPECT_EQ(base.placement(ref).start, mixed.placement(ref).start);
    }
  }

  ASSERT_EQ(alone.decisions().size(), teed.decisions().size());
  int cuts = 0;
  for (std::size_t i = 0; i < teed.decisions().size(); ++i) {
    const LoggedDecision& x = alone.decisions()[i];
    const LoggedDecision& y = teed.decisions()[i];
    EXPECT_EQ(x.at, y.at);
    EXPECT_TRUE(x == y) << "decision " << i << " at " << x.at;
    cuts += x.has_cut ? 1 : 0;
  }
  EXPECT_GT(cuts, 0);
}

// --- Metrics agree between the fast path and the reference schedulers
// (obs/probe.hpp). ---

constexpr Policy kMetricPolicies[] = {Policy::kEpdf, Policy::kPf,
                                      Policy::kPd, Policy::kPd2};

TaskSystem metric_system(int seed) {
  GeneratorConfig cfg;
  cfg.processors = 2 + seed % 4;
  cfg.target_util = Rational(cfg.processors) - Rational(1, 2 + seed % 3);
  cfg.weights = static_cast<WeightClass>(seed % 4);
  cfg.horizon = 16 + (seed % 3) * 8;
  cfg.seed = 500 + static_cast<std::uint64_t>(seed);
  return generate_periodic(cfg);
}

BernoulliYield metric_yields(int seed) {
  return BernoulliYield(static_cast<std::uint64_t>(seed) * 31 + 7, 1, 2,
                        kTick, kQuantum - kTick);
}

void expect_quality_metrics(const MetricsSnapshot& snap,
                            const QualityCounters& q,
                            const std::string& tag) {
  EXPECT_EQ(snap.counter_or(sched_metrics::kPreemptions), q.preemptions)
      << tag;
  EXPECT_EQ(snap.counter_or(sched_metrics::kMigrations), q.migrations)
      << tag;
  EXPECT_EQ(snap.counter_or(sched_metrics::kIdleQuanta), q.idle_slots)
      << tag;
}

// Metrics ride the fast path, and the three quality metrics share
// QualityCounters' definitions: they equal the offline recount.
TEST(SchedMetrics, FastPathQualityMetricsMatchRecount) {
  for (int seed = 0; seed < 20; ++seed) {
    const TaskSystem sys = metric_system(seed);
    for (const Policy policy : kMetricPolicies) {
      const std::string tag =
          "seed " + std::to_string(seed) + " " + to_string(policy);
      MetricsRegistry sreg;
      SfqOptions sopts;
      sopts.policy = policy;
      sopts.metrics = &sreg;
      const SlotSchedule ssched = schedule_sfq(sys, sopts);
      ASSERT_TRUE(ssched.complete()) << tag;
      expect_quality_metrics(sreg.snapshot(), recount_quality(sys, ssched),
                             tag + " sfq");

      const BernoulliYield yields = metric_yields(seed);
      MetricsRegistry dreg;
      DvqOptions dopts;
      dopts.policy = policy;
      dopts.metrics = &dreg;
      const DvqSchedule dsched = schedule_dvq(sys, yields, dopts);
      ASSERT_TRUE(dsched.complete()) << tag;
      expect_quality_metrics(dreg.snapshot(), recount_quality(sys, dsched),
                             tag + " dvq");
    }
  }
}

void expect_same_histogram(const MetricsSnapshot& fast,
                           const MetricsSnapshot& ref, const char* name,
                           const std::string& tag) {
  ASSERT_TRUE(fast.histograms.count(name) == 1 &&
              ref.histograms.count(name) == 1)
      << tag << " " << name;
  EXPECT_EQ(fast.histograms.at(name).count, ref.histograms.at(name).count)
      << tag << " " << name;
  EXPECT_EQ(fast.histograms.at(name).sum, ref.histograms.at(name).sum)
      << tag << " " << name;
}

// Every metric agrees between the fast path and the reference scheduler
// — sched.ready_set_size (heap size vs the reference's full scan)
// included.
void expect_paths_agree(const MetricsSnapshot& fast,
                        const MetricsSnapshot& ref, const std::string& tag) {
  expect_same_histogram(fast, ref, sched_metrics::kReadySetSize, tag);
  expect_same_histogram(fast, ref, sched_metrics::kTardinessTicks, tag);
  for (const char* name :
       {sched_metrics::kInvocations, sched_metrics::kPlacements,
        sched_metrics::kDeadlineMisses, sched_metrics::kPreemptions,
        sched_metrics::kMigrations, sched_metrics::kIdleQuanta}) {
    EXPECT_EQ(fast.counter_or(name, -1), ref.counter_or(name, -1))
        << tag << " " << name;
  }
}

TEST(SchedMetrics, FastPathAgreesWithExplainRun) {
  for (int seed = 0; seed < 20; ++seed) {
    const TaskSystem sys = metric_system(seed);
    for (const Policy policy : kMetricPolicies) {
      const std::string tag =
          "seed " + std::to_string(seed) + " " + to_string(policy);
      MetricsRegistry sfast;
      MetricsRegistry sref;
      SfqOptions sopts;
      sopts.policy = policy;
      sopts.metrics = &sfast;
      (void)schedule_sfq(sys, sopts);
      sopts.metrics = &sref;
      (void)schedule_sfq_reference(sys, sopts);
      expect_paths_agree(sfast.snapshot(), sref.snapshot(), tag + " sfq");

      const BernoulliYield yields = metric_yields(seed);
      MetricsRegistry dfast;
      MetricsRegistry dref;
      DvqOptions dopts;
      dopts.policy = policy;
      dopts.metrics = &dfast;
      (void)schedule_dvq(sys, yields, dopts);
      dopts.metrics = &dref;
      (void)schedule_dvq_reference(sys, yields, dopts);
      expect_paths_agree(dfast.snapshot(), dref.snapshot(), tag + " dvq");
    }
  }
}

// The metrics probe writes sched.tardiness_ticks during the run;
// record_tardiness_metrics, run after it as pfairsim --metrics does,
// adds only the per-task histograms and gauges.  So the overall
// histogram counts each placed subtask once, and the per-task ones sum
// to the same count.
void expect_tardiness_counted_once(const TaskSystem& sys,
                                   const MetricsSnapshot& snap,
                                   const std::string& tag) {
  const std::int64_t placements =
      snap.counter_or(sched_metrics::kPlacements, -1);
  EXPECT_EQ(placements, sys.total_subtasks()) << tag;
  ASSERT_EQ(snap.histograms.count(sched_metrics::kTardinessTicks), 1u)
      << tag;
  EXPECT_EQ(snap.histograms.at(sched_metrics::kTardinessTicks).count,
            placements)
      << tag;
  std::int64_t per_task = 0;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    per_task += snap.histograms
                    .at("task." + sys.task(k).name() + ".tardiness_ticks")
                    .count;
  }
  EXPECT_EQ(per_task, placements) << tag;
  EXPECT_EQ(snap.gauges.at("sched.unscheduled_subtasks"), 0) << tag;
}

TEST(SchedMetrics, TardinessHistogramCountsEachPlacementOnce) {
  for (int seed = 0; seed < 6; ++seed) {
    const TaskSystem sys = metric_system(seed);
    const std::string tag = "seed " + std::to_string(seed);
    MetricsRegistry sreg;
    SfqOptions sopts;
    sopts.metrics = &sreg;
    const SlotSchedule ssched = schedule_sfq(sys, sopts);
    record_tardiness_metrics(sys, ssched, sreg);
    expect_tardiness_counted_once(sys, sreg.snapshot(), tag + " sfq");

    MetricsRegistry dreg;
    DvqOptions dopts;
    dopts.metrics = &dreg;
    const DvqSchedule dsched = schedule_dvq(sys, metric_yields(seed), dopts);
    record_tardiness_metrics(sys, dsched, dreg);
    expect_tardiness_counted_once(sys, dreg.snapshot(), tag + " dvq");
  }
}

// A run with an explain sink fills the caller's quality counters from
// the recount, exactly as a plain run does.
TEST(SchedMetrics, ExplainRunFillsQualityFromRecount) {
  const TaskSystem sys = metric_system(3);
  QualityCounters fast;
  QualityCounters explained;
  RingBufferSink ring(1 << 12);
  SfqOptions opts;
  opts.quality = &fast;
  const SlotSchedule sched = schedule_sfq(sys, opts);
  opts.quality = &explained;
  opts.trace = &ring;
  (void)schedule_sfq(sys, opts);
  EXPECT_EQ(fast, recount_quality(sys, sched));
  EXPECT_EQ(explained, fast);

  const BernoulliYield yields = metric_yields(3);
  QualityCounters dfast;
  QualityCounters dexplained;
  DvqOptions dopts;
  dopts.quality = &dfast;
  (void)schedule_dvq(sys, yields, dopts);
  dopts.quality = &dexplained;
  dopts.trace = &ring;
  (void)schedule_dvq(sys, yields, dopts);
  EXPECT_EQ(dexplained, dfast);
}

// Forwards to `inner` while asking only for the decision events.
class DecisionOnlyRing final : public TraceSink {
 public:
  explicit DecisionOnlyRing(RingBufferSink& inner) : inner_(&inner) {}
  void on_event(const TraceEvent& e) override { inner_->on_event(e); }
  [[nodiscard]] TraceEventMask event_mask() const override {
    return kDecisionTraceEvents;
  }

 private:
  RingBufferSink* inner_;
};

// A sink's mask only decides whether the explanation is built: the
// simulators accept any sink, a decision-mask sink sees no explain
// event, and one that asks for them gets them, even teed beside the
// auditor, which stays clean.
TEST(SchedMetrics, SimulatorsExplainOnlyWhenAsked) {
  const TaskSystem sys = fig6_system();
  const FullQuantumYield yields;
  const auto explain_events = [](const RingBufferSink& ring) {
    int n = 0;
    for (const TraceEvent& e : ring.snapshot()) {
      n += (trace_mask_of(e.kind) & kExplainTraceEvents) != 0 ? 1 : 0;
    }
    return n;
  };
  for (const bool dvq : {false, true}) {
    RingBufferSink full(1 << 14);
    RingBufferSink watched(1 << 14);
    InvariantAuditor auditor(sys);
    DecisionOnlyRing decisions(watched);
    TeeSink mixed(&auditor, &full);
    for (TraceSink* sink :
         std::initializer_list<TraceSink*>{&mixed, &decisions}) {
      if (dvq) {
        DvqSimulator sim(sys, yields);
        sim.set_trace_sink(sink);
        sim.run_until(Time::slots(default_horizon(sys)));
      } else {
        SfqSimulator sim(sys);
        sim.set_trace_sink(sink);
        sim.run_until(default_horizon(sys));
      }
    }
    EXPECT_GT(explain_events(full), 0) << (dvq ? "dvq" : "sfq");
    EXPECT_GT(watched.total(), 0u) << (dvq ? "dvq" : "sfq");
    EXPECT_EQ(explain_events(watched), 0) << (dvq ? "dvq" : "sfq");
    EXPECT_TRUE(auditor.findings().empty()) << (dvq ? "dvq" : "sfq");
  }
}

// Counts a run's events per kind.
class KindCounter final : public TraceSink {
 public:
  void on_event(const TraceEvent& e) override {
    ++counts_[static_cast<std::size_t>(e.kind)];
  }
  [[nodiscard]] std::int64_t of(TraceEventKind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }

 private:
  std::array<std::int64_t,
             static_cast<std::size_t>(TraceEventKind::kAuditFinding) + 1>
      counts_{};
};

// The explanation is O(M) per decision, whatever the ready set's size:
// at most one cut and one ready-set report, and at most M preemptions and
// M free processors, per slot or event instant.  500 tasks of weight 1/37
// on M = 16 keep hundreds of subtasks ready and denied at once.
TEST(ExplainStream, VolumeIsOrderMPerDecision) {
  constexpr int kM = 16;
  std::vector<Task> tasks;
  for (int i = 0; i < 500; ++i) {
    tasks.push_back(
        Task::periodic("t" + std::to_string(i), Weight(1, 37), 370));
  }
  const TaskSystem sys(std::move(tasks), kM);
  const auto check = [](const KindCounter& c, const std::string& model) {
    const std::int64_t decisions = c.of(TraceEventKind::kSlotBegin) +
                                   c.of(TraceEventKind::kEventBegin);
    EXPECT_GT(decisions, 0) << model;
    EXPECT_GT(c.of(TraceEventKind::kCompare), 0) << model;
    EXPECT_LE(c.of(TraceEventKind::kCompare), decisions) << model;
    EXPECT_LE(c.of(TraceEventKind::kReadySet), decisions) << model;
    EXPECT_LE(c.of(TraceEventKind::kPreempt), kM * decisions) << model;
    EXPECT_LE(c.of(TraceEventKind::kProcFree), kM * decisions) << model;
    EXPECT_EQ(c.of(TraceEventKind::kPlace), 5000) << model;
  };
  KindCounter sfq;
  SfqOptions sopts;
  sopts.trace = &sfq;
  ASSERT_TRUE(schedule_sfq(sys, sopts).complete());
  check(sfq, "sfq");

  KindCounter dvq;
  DvqOptions dopts;
  dopts.trace = &dvq;
  const BernoulliYield yields(1, 1, 2, Time::ticks(kTicksPerSlot / 4),
                              kQuantum - kTick);
  ASSERT_TRUE(schedule_dvq(sys, yields, dopts).complete());
  check(dvq, "dvq");
}

TEST(TraceEventJson, RoundTripsThroughTheParser) {
  TraceEvent e;
  e.kind = TraceEventKind::kPlace;
  e.proc = 1;
  e.at = Time::slots(3);
  e.subject = SubtaskRef{2, 4};
  e.detail = 7;
  const JsonValue v = parse_json(trace_event_json(e));
  EXPECT_EQ(v.at("k").string, "place");
  EXPECT_EQ(v.at("proc").integer, 1);
  EXPECT_EQ(v.at("task").integer, 2);
  EXPECT_EQ(v.at("seq").integer, 4);
  EXPECT_EQ(v.at("d").integer, 7);
}

}  // namespace
}  // namespace pfair
