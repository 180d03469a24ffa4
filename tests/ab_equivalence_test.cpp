// Randomized A/B equivalence: the optimized simulators (calendar +
// packed-key ready heaps) must produce bit-identical schedules to the
// retained naive references, across policies, workload shapes, and with
// or without observability attached.  This is the contract that lets the
// hot path change shape while every downstream analysis stays exact.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>

#include "core/arena.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "dvq/reference_scheduler.hpp"
#include "io/json.hpp"
#include "io/trace_io.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/prof.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"
#include "sched/reference_scheduler.hpp"
#include "sched/sfq_scheduler.hpp"
#include "sched/simulator.hpp"
#include "dvq/dvq_simulator.hpp"
#include "workload/generator.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

constexpr Policy kAllPolicies[] = {Policy::kEpdf, Policy::kPf, Policy::kPd,
                                   Policy::kPd2};
constexpr int kSeeds = 50;

// Workload shapes cycle with the seed: pure periodic, IS jitter, GIS
// drops, and early eligibility (Eq. (6)), over varying machine sizes,
// utilizations and weight classes.
TaskSystem make_system(int seed) {
  GeneratorConfig cfg;
  cfg.processors = 2 + seed % 5;
  cfg.target_util = Rational(cfg.processors) - Rational(1, 2 + seed % 3);
  cfg.weights = static_cast<WeightClass>(seed % 4);
  cfg.horizon = 12 + (seed % 4) * 8;
  cfg.seed = 1000 + static_cast<std::uint64_t>(seed);
  TaskSystem sys = generate_periodic(cfg);
  const auto s = static_cast<std::uint64_t>(seed);
  switch (seed % 4) {
    case 1:
      sys = add_is_jitter(sys, 3, 1, 3, s);
      break;
    case 2:
      sys = drop_subtasks(sys, 1, 8, s);
      break;
    case 3:
      sys = advance_eligibility(sys, 2, 1, 4, s);
      break;
    default:
      break;
  }
  return sys;
}

bool same_sfq(const SlotSchedule& a, const SlotSchedule& b,
              const TaskSystem& sys, std::string* why) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t t = 0; t < sys.task(k).num_subtasks(); ++t) {
      const SubtaskRef ref{k, t};
      const SlotPlacement& pa = a.placement(ref);
      const SlotPlacement& pb = b.placement(ref);
      if (pa.slot != pb.slot || pa.proc != pb.proc) {
        std::ostringstream os;
        os << ref << ": slot " << pa.slot << "/proc " << pa.proc << " vs "
           << pb.slot << "/" << pb.proc;
        *why = os.str();
        return false;
      }
    }
  }
  return true;
}

bool same_dvq(const DvqSchedule& a, const DvqSchedule& b,
              const TaskSystem& sys, std::string* why) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t t = 0; t < sys.task(k).num_subtasks(); ++t) {
      const SubtaskRef ref{k, t};
      const DvqPlacement& pa = a.placement(ref);
      const DvqPlacement& pb = b.placement(ref);
      if (pa.start != pb.start || pa.cost != pb.cost || pa.proc != pb.proc) {
        std::ostringstream os;
        os << ref << ": start " << pa.start.raw_ticks() << "/proc "
           << pa.proc << " vs " << pb.start.raw_ticks() << "/" << pb.proc;
        *why = os.str();
        return false;
      }
    }
  }
  return true;
}

// gtest assertions are not thread-safe; workers record failures and the
// main thread reports them.
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

// Forwards to `inner` while asking only for the decision events, so the
// run it observes builds no explanation.
class DecisionOnly final : public TraceSink {
 public:
  explicit DecisionOnly(TraceSink& inner) : inner_(&inner) {}
  void on_event(const TraceEvent& e) override { inner_->on_event(e); }
  void flush() override { inner_->flush(); }
  [[nodiscard]] TraceEventMask event_mask() const override {
    return kDecisionTraceEvents;
  }

 private:
  TraceSink* inner_;
};

TEST(AbEquivalence, SfqMatchesNaiveReferenceAcrossSeedsAndPolicies) {
  FailureLog failures;
  global_pool().parallel_for(
      0, kSeeds * 4,
      [&](std::int64_t i) {
          const int seed = static_cast<int>(i / 4);
          const Policy policy = kAllPolicies[i % 4];
          const TaskSystem sys = make_system(seed);
          SfqOptions opts;
          opts.policy = policy;
          const SlotSchedule ref = schedule_sfq_reference(sys, opts);
          const SlotSchedule fast = schedule_sfq(sys, opts);

          // Observed on the fast path: metrics plus a decision-mask sink.
          SfqOptions obs_opts = opts;
          RingBufferSink ring(512);
          DecisionOnly sink(ring);
          MetricsRegistry reg;
          obs_opts.trace = &sink;
          obs_opts.metrics = &reg;
          const SlotSchedule observed = schedule_sfq(sys, obs_opts);

          std::string why;
          const std::string tag = "seed " + std::to_string(seed) + " " +
                                  to_string(policy);
          if (!same_sfq(ref, fast, sys, &why)) {
            failures.record(tag + " fast: " + why);
          }
          if (!same_sfq(ref, observed, sys, &why)) {
            failures.record(tag + " observed: " + why);
          }
      });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
}

TEST(AbEquivalence, DvqMatchesNaiveReferenceAcrossSeedsAndPolicies) {
  FailureLog failures;
  global_pool().parallel_for(
      0, kSeeds * 4,
      [&](std::int64_t i) {
          const int seed = static_cast<int>(i / 4);
          const Policy policy = kAllPolicies[i % 4];
          const TaskSystem sys = make_system(seed);
          const BernoulliYield yields(
              static_cast<std::uint64_t>(seed) * 7919 + 3, 1, 3, kTick,
              kQuantum - kTick);
          DvqOptions opts;
          opts.policy = policy;
          const DvqSchedule ref = schedule_dvq_reference(sys, yields, opts);
          const DvqSchedule fast = schedule_dvq(sys, yields, opts);

          DvqOptions obs_opts = opts;
          RingBufferSink ring(512);
          DecisionOnly sink(ring);
          MetricsRegistry reg;
          obs_opts.trace = &sink;
          obs_opts.metrics = &reg;
          const DvqSchedule observed = schedule_dvq(sys, yields, obs_opts);

          std::string why;
          const std::string tag = "seed " + std::to_string(seed) + " " +
                                  to_string(policy);
          if (!same_dvq(ref, fast, sys, &why)) {
            failures.record(tag + " fast: " + why);
          }
          if (!same_dvq(ref, observed, sys, &why)) {
            failures.record(tag + " observed: " + why);
          }
      });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
}

// An attached invariant auditor (whose event_mask is the decision-only
// subset, keeping the simulators on their fast paths) must be invisible
// to the schedule in both models — and must stay clean on these
// feasible systems.
TEST(AbEquivalence, AuditorOnRunsAreBitIdentical) {
  FailureLog failures;
  global_pool().parallel_for(
      0, kSeeds * 4,
      [&](std::int64_t i) {
          const int seed = static_cast<int>(i / 4);
          const Policy policy = kAllPolicies[i % 4];
          const TaskSystem sys = make_system(seed);
          const std::string tag = "seed " + std::to_string(seed) + " " +
                                  to_string(policy);
          std::string why;

          SfqOptions sopts;
          sopts.policy = policy;
          const SlotSchedule plain = schedule_sfq(sys, sopts);
          SfqOptions saudit = sopts;
          InvariantAuditor sfq_audit(sys);
          saudit.trace = &sfq_audit;
          if (!same_sfq(plain, schedule_sfq(sys, saudit), sys, &why)) {
            failures.record(tag + " sfq audited: " + why);
          }

          const BernoulliYield yields(
              static_cast<std::uint64_t>(seed) * 7919 + 3, 1, 3, kTick,
              kQuantum - kTick);
          DvqOptions dopts;
          dopts.policy = policy;
          const DvqSchedule dplain = schedule_dvq(sys, yields, dopts);
          DvqOptions daudit = dopts;
          InvariantAuditor dvq_audit(sys);
          daudit.trace = &dvq_audit;
          if (!same_dvq(dplain, schedule_dvq(sys, yields, daudit), sys,
                        &why)) {
            failures.record(tag + " dvq audited: " + why);
          }
      });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
}

// Flyweight vs eager construction must be invisible to every scheduler:
// the same weights/phases/horizon, one system synthesizing subtasks from
// shared window tables and one materializing them the pre-flyweight way,
// must produce bit-identical SFQ and DVQ schedules under all policies.
TEST(AbEquivalence, FlyweightConstructionMatchesEagerSchedules) {
  for (int seed = 0; seed < 8; ++seed) {
    const int m = 2 + seed % 3;
    std::vector<Weight> weights;
    {
      Rng rng(static_cast<std::uint64_t>(7000 + seed));
      Rational util;
      while (util < Rational(m)) {
        const std::int64_t p = 4 + rng.uniform(0, 11);
        const std::int64_t e = rng.uniform(1, p);
        if (util + Rational(e, p) > Rational(m)) break;
        weights.push_back(Weight(e, p));
        util += Rational(e, p);
      }
    }
    const std::int64_t horizon = 48;
    std::vector<Task> fly;
    std::vector<Task> eager;
    for (std::size_t k = 0; k < weights.size(); ++k) {
      const std::int64_t phase = static_cast<std::int64_t>(k % 3);
      const std::string name = "T" + std::to_string(k);
      fly.push_back(
          Task::periodic_phased(name, weights[k], phase, horizon));
      eager.push_back(
          Task::periodic_phased_eager(name, weights[k], phase, horizon));
    }
    const TaskSystem fly_sys(std::move(fly), m);
    const TaskSystem eager_sys(std::move(eager), m);

    for (const Policy policy : kAllPolicies) {
      const std::string tag =
          "seed " + std::to_string(seed) + " " + to_string(policy);
      SfqOptions sopts;
      sopts.policy = policy;
      std::string why;
      ASSERT_TRUE(same_sfq(schedule_sfq(fly_sys, sopts),
                           schedule_sfq(eager_sys, sopts), fly_sys, &why))
          << tag << ": " << why;

      const BernoulliYield yields(
          static_cast<std::uint64_t>(seed) * 131 + 5, 1, 3, kTick,
          kQuantum - kTick);
      DvqOptions dopts;
      dopts.policy = policy;
      ASSERT_TRUE(same_dvq(schedule_dvq(fly_sys, yields, dopts),
                           schedule_dvq(eager_sys, yields, dopts), fly_sys,
                           &why))
          << tag << ": " << why;
    }
  }
}

// A sink that asks only for the decision events (so it may sit on a
// simulator directly) and counts the placements it sees.
class PlacementCounter final : public TraceSink {
 public:
  void on_event(const TraceEvent& e) override {
    if (e.kind == TraceEventKind::kPlace) ++placements;
  }
  [[nodiscard]] TraceEventMask event_mask() const override {
    return kDecisionTraceEvents;
  }
  std::int64_t placements = 0;
};

// Toggling observers mid-run — a metrics registry plus a decision-mask
// sink, attached and detached between steps — must not change the
// schedule: probed and unprobed steps share one decision body and one
// ready heap.  Metrics count exactly the observed steps.
TEST(AbEquivalence, SfqMixedInstrumentationStaysIdentical) {
  for (const Policy policy : kAllPolicies) {
    const TaskSystem sys = make_system(5);
    SfqOptions opts;
    opts.policy = policy;
    const SlotSchedule ref = schedule_sfq_reference(sys, opts);

    SfqSimulator sim(sys, policy);
    PlacementCounter sink;
    MetricsRegistry reg;
    const auto observe = [&](bool on) {
      sim.set_trace_sink(on ? &sink : nullptr);
      if (on) {
        sim.attach_metrics(reg);
      } else {
        sim.detach_metrics();
      }
    };
    const std::int64_t horizon = default_horizon(sys);
    observe(true);
    sim.run_until(3);  // observed slots 0..2
    observe(false);
    sim.run_until(horizon / 2);
    observe(true);
    sim.run_until(horizon / 2 + 2);
    observe(false);
    sim.run_until(horizon);

    std::string why;
    ASSERT_TRUE(same_sfq(ref, sim.schedule(), sys, &why))
        << to_string(policy) << ": " << why;
    EXPECT_GT(sink.placements, 0);
    EXPECT_EQ(reg.snapshot().counter_or(sched_metrics::kPlacements),
              sink.placements);
  }
}

TEST(AbEquivalence, DvqMixedInstrumentationStaysIdentical) {
  for (const Policy policy : kAllPolicies) {
    const TaskSystem sys = make_system(6);
    const BernoulliYield yields(17, 1, 2, kTick, kQuantum - kTick);
    DvqOptions opts;
    opts.policy = policy;
    const DvqSchedule ref = schedule_dvq_reference(sys, yields, opts);

    DvqSimulator sim(sys, yields, policy);
    PlacementCounter sink;
    MetricsRegistry reg;
    const auto observe = [&](bool on) {
      sim.set_trace_sink(on ? &sink : nullptr);
      if (on) {
        sim.attach_metrics(reg);
      } else {
        sim.detach_metrics();
      }
    };
    observe(true);
    for (int i = 0; i < 3 && sim.has_events(); ++i) sim.step();
    observe(false);
    const std::int64_t horizon = default_horizon(sys);
    const Time limit = Time::slots(horizon);
    sim.run_until(Time::slots(horizon / 2));
    observe(true);
    for (int i = 0; i < 2 && sim.has_events(); ++i) sim.step();
    observe(false);
    sim.run_until(limit);

    std::string why;
    ASSERT_TRUE(same_dvq(ref, sim.schedule(), sys, &why))
        << to_string(policy) << ": " << why;
    EXPECT_GT(sink.placements, 0);
    EXPECT_EQ(reg.snapshot().counter_or(sched_metrics::kPlacements),
              sink.placements);
  }
}

// The number of explain-event lines in a JSONL stream.
std::size_t explain_lines(const std::string& jsonl) {
  std::istringstream is(jsonl);
  std::size_t n = 0;
  std::string line;
  while (std::getline(is, line)) {
    const TraceEvent e = trace_event_from_json(parse_json(line));
    if ((trace_mask_of(e.kind) & kExplainTraceEvents) != 0) ++n;
  }
  return n;
}

// Runs `run(sink, reference)` with a full-mask JSONL sink on the fast
// path and on the reference scheduler, and checks that the two streams,
// every event kind included, are byte-identical and carry explain
// events.
template <typename Run>
bool same_event_stream(Run&& run, std::string* why) {
  std::ostringstream fast_os;
  JsonlSink fast(fast_os);
  run(&fast, /*reference=*/false);
  std::ostringstream ref_os;
  JsonlSink ref(ref_os);
  run(&ref, /*reference=*/true);
  const std::string a = fast_os.str();
  const std::string b = ref_os.str();
  if (a != b) {
    std::istringstream as(a);
    std::istringstream bs(b);
    std::string la;
    std::string lb;
    for (int line = 1;; ++line) {
      const bool more_a = static_cast<bool>(std::getline(as, la));
      const bool more_b = static_cast<bool>(std::getline(bs, lb));
      if (!more_a) la = "<end>";
      if (!more_b) lb = "<end>";
      if (la != lb || !more_a || !more_b) {
        *why = "line " + std::to_string(line) + ": fast " + la +
               " vs reference " + lb;
        break;
      }
    }
    return false;
  }
  if (explain_lines(a) == 0) {
    *why = "the stream carried no explain events";
    return false;
  }
  return true;
}

bool same_event_streams(const TaskSystem& sys, const YieldModel& yields,
                        Policy policy, std::string* why) {
  if (!same_event_stream(
          [&](TraceSink* sink, bool reference) {
            SfqOptions o;
            o.policy = policy;
            o.trace = sink;
            (void)(reference ? schedule_sfq_reference(sys, o)
                             : schedule_sfq(sys, o));
          },
          why)) {
    *why = "sfq: " + *why;
    return false;
  }
  if (!same_event_stream(
          [&](TraceSink* sink, bool reference) {
            DvqOptions o;
            o.policy = policy;
            o.trace = sink;
            (void)(reference ? schedule_dvq_reference(sys, yields, o)
                             : schedule_dvq(sys, yields, o));
          },
          why)) {
    *why = "dvq: " + *why;
    return false;
  }
  return true;
}

// The fast path's whole event stream, each decision's canonical
// explanation included, is the reference's byte for byte: the same
// ready-set sizes, cut (winner, denied subtask and deciding rule, read
// off packed keys on the fast path and from PriorityOrder::compare in
// the reference), preemptions and idle capacity.
TEST(AbEquivalence, FigureExplainStreamsMatchReference) {
  const FullQuantumYield full_quanta;
  for (const char* name : {"fig1a", "fig1b", "fig1c", "fig2", "fig3",
                           "fig6"}) {
    const std::optional<FigureScenario> sc = figure_scenario_by_name(name);
    ASSERT_TRUE(sc.has_value()) << name;
    const YieldModel& yields =
        sc->yields != nullptr ? *sc->yields
                              : static_cast<const YieldModel&>(full_quanta);
    std::string why;
    EXPECT_TRUE(same_event_streams(sc->system, yields, Policy::kPd2, &why))
        << name << " " << why;
  }
}

TEST(AbEquivalence, SeededExplainStreamsMatchReference) {
  FailureLog failures;
  global_pool().parallel_for(
      0, kSeeds * 4,
      [&](std::int64_t i) {
          const int seed = static_cast<int>(i / 4);
          const Policy policy = kAllPolicies[i % 4];
          const TaskSystem sys = make_system(seed);
          const BernoulliYield yields(
              static_cast<std::uint64_t>(seed) * 7919 + 3, 1, 3, kTick,
              kQuantum - kTick);
          std::string why;
          if (!same_event_streams(sys, yields, policy, &why)) {
            failures.record("seed " + std::to_string(seed) + " " +
                            to_string(policy) + " " + why);
          }
      });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
}

// Profiling spans (obs/prof.hpp) and quality counters (obs/quality.hpp)
// are pure observers: a run with a profiler installed on the thread and
// counters attached must be bit-identical to the plain run, in both
// models.  This is the acceptance contract that makes `--profile` safe
// to leave on in production-style invocations.
TEST(AbEquivalence, ProfiledAndQualityRunsAreBitIdentical) {
  FailureLog failures;
  global_pool().parallel_for(
      0, kSeeds * 4,
      [&](std::int64_t i) {
          const int seed = static_cast<int>(i / 4);
          const Policy policy = kAllPolicies[i % 4];
          const TaskSystem sys = make_system(seed);
          const std::string tag = "seed " + std::to_string(seed) + " " +
                                  to_string(policy);
          std::string why;

          SfqOptions sopts;
          sopts.policy = policy;
          const SlotSchedule plain = schedule_sfq(sys, sopts);
          prof::Profiler profiler;
          {
            prof::ProfScope scope(&profiler);
            SfqOptions sq = sopts;
            QualityCounters q;
            sq.quality = &q;
            if (!same_sfq(plain, schedule_sfq(sys, sq), sys, &why)) {
              failures.record(tag + " sfq profiled: " + why);
            }
          }

          const BernoulliYield yields(
              static_cast<std::uint64_t>(seed) * 7919 + 3, 1, 3, kTick,
              kQuantum - kTick);
          DvqOptions dopts;
          dopts.policy = policy;
          const DvqSchedule dplain = schedule_dvq(sys, yields, dopts);
          {
            prof::ProfScope scope(&profiler);
            DvqOptions dq = dopts;
            QualityCounters q;
            dq.quality = &q;
            if (!same_dvq(dplain, schedule_dvq(sys, yields, dq), sys,
                          &why)) {
              failures.record(tag + " dvq profiled: " + why);
            }
          }
      });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
}

// The SIMD shim is an implementation detail: with the runtime
// force-scalar hook engaged, every policy must produce bit-identical
// schedules in both models, with and without an arena attached.  Runs
// serially — the hook is process-wide.
TEST(AbEquivalence, SimdAndScalarBackendsAreBitIdentical) {
  struct ScalarGuard {  // restore the hook even if an assertion fires
    ~ScalarGuard() { simd::set_force_scalar(false); }
  } guard;
  for (int seed = 0; seed < 12; ++seed) {
    const TaskSystem sys = make_system(seed);
    const BernoulliYield yields(static_cast<std::uint64_t>(seed) * 131 + 7, 1,
                                3, kTick, kQuantum - kTick);
    for (const Policy policy : kAllPolicies) {
      const std::string tag =
          "seed " + std::to_string(seed) + " " + to_string(policy);

      SfqOptions sopts;
      sopts.policy = policy;
      DvqOptions dopts;
      dopts.policy = policy;
      Arena arena;
      SfqOptions aopts = sopts;
      aopts.arena = &arena;

      const SlotSchedule simd_sfq = schedule_sfq(sys, sopts);
      SlotSchedule simd_arena(sys);
      schedule_sfq_into(sys, aopts, simd_arena);
      const DvqSchedule simd_dvq = schedule_dvq(sys, yields, dopts);

      simd::set_force_scalar(true);
      const SlotSchedule scalar_sfq = schedule_sfq(sys, sopts);
      arena.reset();
      SlotSchedule scalar_arena(sys);
      schedule_sfq_into(sys, aopts, scalar_arena);
      const DvqSchedule scalar_dvq = schedule_dvq(sys, yields, dopts);
      simd::set_force_scalar(false);

      std::string why;
      ASSERT_TRUE(same_sfq(simd_sfq, scalar_sfq, sys, &why))
          << tag << " sfq: " << why;
      ASSERT_TRUE(same_sfq(simd_sfq, simd_arena, sys, &why))
          << tag << " sfq arena (simd): " << why;
      ASSERT_TRUE(same_sfq(simd_sfq, scalar_arena, sys, &why))
          << tag << " sfq arena (scalar): " << why;
      ASSERT_TRUE(same_dvq(simd_dvq, scalar_dvq, sys, &why))
          << tag << " dvq: " << why;
    }
  }
}

}  // namespace
}  // namespace pfair
