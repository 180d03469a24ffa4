// Steady-state cycle detection and hyperperiod fast-forward.
//
// The contract under test: `schedule_sfq_cyclic` / `schedule_dvq_cyclic`
// produce schedules bit-identical to the naive reference oracles at any
// horizon — whether or not fast-forward engages — and every downstream
// consumer (validity, lag, tardiness, the InvariantAuditor via
// `replay_decisions`) sees a CycleSchedule exactly as it would see the
// materialized SlotSchedule.  Systems that defeat fingerprinting
// (phased, IS jitter, Bernoulli yields) must refuse fast-forward and
// fall back to the plain full run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/hyperperiod.hpp"
#include "analysis/lag.hpp"
#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "dvq/dvq_cycle.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "dvq/dvq_simulator.hpp"
#include "dvq/reference_scheduler.hpp"
#include "dvq/yield.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "sched/cell_store.hpp"
#include "sched/compressed_schedule.hpp"
#include "sched/reference_scheduler.hpp"
#include "sched/sfq_scheduler.hpp"
#include "sched/simulator.hpp"
#include "sched/state_hash.hpp"
#include "workload/generator.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

constexpr Policy kAllPolicies[] = {Policy::kEpdf, Policy::kPf, Policy::kPd,
                                   Policy::kPd2};

// Deterministic weight pool with all periods dividing 24, so every
// generated system has hyperperiod H | 24 — horizons crossing 1, 2 and
// 7.5 hyperperiods are then exact, known multiples.
constexpr std::int64_t kPool = 24;

// Builds a zero-phase periodic system with H | 24 and subtask coverage
// of `coverage_cycles` pool periods.  Roughly one third of seeds leave
// utilization slack (idle slots join the repeating pattern); the rest
// fill up to exactly M.
// `extra_slots` extends the coverage past whole pool periods, so a
// complete run simulates a tail after the skipped cycles.
TaskSystem make_cyclic_system(int seed, std::int64_t coverage_cycles,
                              std::int64_t extra_slots = 0) {
  Rng rng(static_cast<std::uint64_t>(9000 + seed));
  const int m = 1 + seed % 3;
  const bool leave_slack = seed % 3 == 0;
  const std::int64_t horizon = coverage_cycles * kPool + extra_slots;
  std::vector<Task> tasks;
  Rational util;
  const Rational cap =
      leave_slack ? Rational(m) - Rational(1, 3) : Rational(m);
  while (util < cap) {
    const std::int64_t periods[] = {2, 3, 4, 6, 8, 12, 24};
    const std::int64_t p = periods[rng.uniform(0, 6)];
    const std::int64_t e = rng.uniform(1, p);
    if (util + Rational(e, p) > cap) {
      // Close the gap exactly (cap - util has a denominator dividing 24).
      const Rational gap = cap - util;
      const std::int64_t ge = gap.num() * (kPool / gap.den());
      if (ge >= kPool) break;  // gap >= 1: cannot close with one task
      tasks.push_back(Task::periodic("G" + std::to_string(tasks.size()),
                                     Weight(ge, kPool), horizon));
      util += gap;
      break;
    }
    tasks.push_back(Task::periodic("T" + std::to_string(tasks.size()),
                                   Weight(e, p), horizon));
    util += Rational(e, p);
  }
  return TaskSystem(std::move(tasks), m);
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

// The tentpole property: 100 seeded systems, horizons crossing 1, 2 and
// 7.5 hyperperiods, cyclic path vs naive reference, bit-identical.  The
// 2x and 7.5x horizons must actually engage fast-forward (H | 24 and
// coverage leaves room to skip at least one whole cycle).
TEST(CycleFastForward, SfqMatchesReferenceAcrossHorizons) {
  // Horizons as multiples of kPool (a multiple of every H): 1, 2, 7.5.
  const std::int64_t horizons[] = {kPool, 2 * kPool, 15 * kPool / 2};
  FailureLog failures;
  std::atomic<int> engaged_runs{0};
  global_pool().parallel_for(0, 100, [&](std::int64_t i) {
    const int seed = static_cast<int>(i);
    const TaskSystem sys = make_cyclic_system(seed, 10);
    SfqOptions opts;
    opts.policy = kAllPolicies[seed % 4];
    // EPDF is only optimal on <= 2 processors; a deadline miss perturbs
    // the lag state and recurrence legitimately may not show up.  Keep
    // the engagement assertion sharp by using an optimal policy there.
    if (opts.policy == Policy::kEpdf && sys.processors() > 2) {
      opts.policy = Policy::kPd2;
    }
    for (const std::int64_t h : horizons) {
      opts.horizon_limit = h;
      const std::string tag =
          "seed " + std::to_string(seed) + " h=" + std::to_string(h);
      const SlotSchedule ref = schedule_sfq_reference(sys, opts);
      const CycleSchedule cyc = schedule_sfq_cyclic(sys, opts);
      std::string why;
      if (!same_sfq(ref, cyc.materialize(), sys, &why)) {
        failures.record(tag + " materialized: " + why);
      }
      // The public entry point routes through the same machinery.
      if (!same_sfq(ref, schedule_sfq(sys, opts), sys, &why)) {
        failures.record(tag + " schedule_sfq: " + why);
      }
      if (h >= 2 * kPool) {
        if (!cyc.stats().engaged) {
          failures.record(tag + ": expected fast-forward to engage");
        } else {
          engaged_runs.fetch_add(1, std::memory_order_relaxed);
          if (cyc.stats().sim_slots + cyc.stats().slots_skipped <
              cyc.stats().detect_slot) {
            failures.record(tag + ": inconsistent cycle stats");
          }
        }
      }
    }
  });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
  EXPECT_GE(engaged_runs.load(), 190);  // 2 long horizons x ~100 seeds
}

TEST(CycleFastForward, DvqMatchesReferenceAcrossHorizons) {
  const std::int64_t horizons[] = {kPool, 2 * kPool, 15 * kPool / 2};
  FailureLog failures;
  std::atomic<int> engaged_runs{0};
  global_pool().parallel_for(0, 100, [&](std::int64_t i) {
    const int seed = static_cast<int>(i);
    const TaskSystem sys = make_cyclic_system(seed, 10);
    // Deterministic-periodic yield models only; Bernoulli is the refusal
    // case below.
    const FullQuantumYield full;
    const FixedYield fixed(kQuantum - kTick);
    const FractionalTailYield tail(Time::ticks(kTicksPerSlot / 2));
    const YieldModel* yields[] = {&full, &fixed, &tail};
    const YieldModel& y = *yields[seed % 3];
    DvqOptions opts;
    opts.policy = kAllPolicies[seed % 4];
    for (const std::int64_t h : horizons) {
      opts.horizon_limit = h;
      const std::string tag =
          "seed " + std::to_string(seed) + " h=" + std::to_string(h);
      const DvqSchedule ref = schedule_dvq_reference(sys, y, opts);
      const DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, y, opts);
      std::string why;
      if (!same_dvq(ref, cyc.materialize(), sys, &why)) {
        failures.record(tag + " materialized: " + why);
      }
      if (!same_dvq(ref, schedule_dvq(sys, y, opts), sys, &why)) {
        failures.record(tag + " schedule_dvq: " + why);
      }
      if (h >= 2 * kPool && cyc.stats().engaged) {
        engaged_runs.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(failures.count.load(), 0) << failures.first;
  EXPECT_GE(engaged_runs.load(), 60);
}

// The DVQ warp rebuilds the slot calendar: heads whose readiness instant
// is a slot boundary at or after the detect boundary, strictly after
// their predecessor's completion, wait in a calendar bucket there (not
// on a processor's completion hand-off, not in the ready heap) and must
// rejoin the shifted calendar.  Every engaged run here has such heads.
TEST(CycleFastForward, DvqWarpRebuildsCalendarHeads) {
  int checked = 0;
  for (int seed = 0; seed < 30; ++seed) {
    const TaskSystem sys = make_cyclic_system(seed, 10);
    const FixedYield yields(Time::slots_frac(0, 1, 4));
    DvqOptions opts;
    opts.policy = kAllPolicies[seed % 4];
    opts.horizon_limit = 15 * kPool / 2;
    const DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, yields, opts);
    if (!cyc.stats().engaged) continue;
    const std::int64_t boundary = cyc.stats().detect_slot;
    DvqSimulator sim(sys, yields, opts.policy);
    sim.run_until(Time::slots(boundary));
    int in_calendar = 0;
    for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
      const Time ready = sim.ready_time_of(k);
      if (sim.head_of(k) >= sys.task(k).num_subtasks() ||
          ready < Time::slots(boundary) || !ready.is_slot_boundary()) {
        continue;
      }
      bool hand_off = false;
      for (std::int64_t p = 0; p < sys.processors(); ++p) {
        hand_off |= sim.proc_busy(p) && sim.proc_busy_until(p) == ready;
      }
      in_calendar += hand_off ? 0 : 1;
    }
    const std::string tag = "seed " + std::to_string(seed);
    EXPECT_GT(in_calendar, 0) << tag;
    std::string why;
    EXPECT_TRUE(same_dvq(schedule_dvq_reference(sys, yields, opts),
                         cyc.materialize(), sys, &why))
        << tag << ": " << why;
    ++checked;
  }
  EXPECT_GE(checked, 15);
}

// An engaged splice materializes with its synthesized placements logged
// after the stored tail, so the plain schedule's order log is unsorted
// and the check sorts the lanes: it must report exactly what the
// reference schedule (logged in start order) and the compressed check
// report, with and without a tardiness allowance.
TEST(CycleFastForward, DvqMaterializedSpliceReportsLikeTheReference) {
  int engaged = 0;
  for (int seed = 0; seed < 24; ++seed) {
    const TaskSystem sys = make_cyclic_system(seed, 10);
    const FixedYield yields(Time::slots_frac(0, 1, 4));
    DvqOptions opts;
    opts.policy = kAllPolicies[seed % 4];
    opts.horizon_limit = 15 * kPool / 2;
    const DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, yields, opts);
    if (!cyc.stats().engaged) continue;
    const DvqSchedule mat = cyc.materialize();
    const DvqSchedule ref = schedule_dvq_reference(sys, yields, opts);
    bool in_start_order = true;
    Time prev;
    for (const std::int64_t i : mat.order_log()) {
      const Time start = mat.flat_placement(i).start;
      in_start_order = in_start_order && start >= prev;
      prev = start;
    }
    const std::string tag = "seed " + std::to_string(seed);
    EXPECT_FALSE(in_start_order) << tag;
    for (const Time allowance : {Time(), kQuantum}) {
      const std::string want =
          check_dvq_schedule(sys, ref, allowance).str(SIZE_MAX);
      EXPECT_EQ(check_dvq_schedule(sys, mat, allowance).str(SIZE_MAX), want)
          << tag;
      EXPECT_EQ(check_dvq_schedule(sys, cyc, allowance).str(SIZE_MAX), want)
          << tag;
    }
    ++engaged;
  }
  EXPECT_GE(engaged, 15);
}

// A hand-built fully utilized system must deterministically engage in
// both models.
TEST(CycleFastForward, DeterministicEngagement) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 10 * kPool));
  tasks.push_back(Task::periodic("B", Weight(1, 2), 10 * kPool));
  const TaskSystem sys(std::move(tasks), 1);

  SfqOptions sopts;
  sopts.horizon_limit = 6 * kPool;
  const CycleSchedule sc = schedule_sfq_cyclic(sys, sopts);
  ASSERT_TRUE(sc.stats().engaged);
  EXPECT_GT(sc.stats().slots_skipped, 0);
  EXPECT_LT(sc.stats().sim_slots, 6 * kPool);

  const FullQuantumYield y;
  DvqOptions dopts;
  dopts.horizon_limit = 6 * kPool;
  const DvqCycleSchedule dc = schedule_dvq_cyclic(sys, y, dopts);
  ASSERT_TRUE(dc.stats().engaged);
  EXPECT_GT(dc.stats().slots_skipped, 0);
}

// Pins the simulated-slot split of an engaged DVQ run on the input the
// repo benchmark's self-test uses: 4096 tasks of weight 1/p, p cycling
// through {16, 24, 32, 48, 64}, on 142 processors, horizon 9600, full
// quanta.  The base cycle is [0, 192) and 49 cycles are skipped; the
// last subtask completes in slot 9599, so 9599 - 49 * 192 = 191 slots
// are simulated (not the run limit less the skipped slots).
TEST(CycleFastForward, DvqSimSlotsAreMakespanLessSkipped) {
  constexpr std::int64_t kPeriods[] = {16, 24, 32, 48, 64};
  constexpr std::int64_t kHorizon = 9600;
  std::vector<Task> tasks;
  for (std::int64_t k = 0; k < 4096; ++k) {
    tasks.push_back(Task::periodic("t" + std::to_string(k),
                                   Weight(1, kPeriods[k % 5]), kHorizon));
  }
  const TaskSystem sys(std::move(tasks), 142);
  const FullQuantumYield yields;
  const DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, yields);
  const CycleStats& st = cyc.stats();
  ASSERT_TRUE(st.engaged);
  EXPECT_EQ(st.prefix_slots, 0);
  EXPECT_EQ(st.cycle_slots, 192);
  EXPECT_EQ(st.cycles_skipped, 49);
  EXPECT_EQ(st.slots_skipped, 49 * 192);
  EXPECT_EQ(cyc.makespan(), Time::slots(9599));
  EXPECT_EQ(st.sim_slots, 191);
}

// Systems that defeat exact fingerprinting must refuse fast-forward and
// fall back to the plain full run, bit-identically.
TEST(CycleFastForward, RefusesAndFallsBackCleanly) {
  for (int seed = 0; seed < 12; ++seed) {
    SfqOptions opts;
    opts.policy = kAllPolicies[seed % 4];
    opts.horizon_limit = 6 * kPool;

    // Phased: release anchors cannot recur at hyperperiod boundaries.
    TaskSystem base = make_cyclic_system(seed, 8);
    std::vector<Task> phased_tasks;
    for (std::int32_t k = 0; k < base.num_tasks(); ++k) {
      const Task& t = base.task(k);
      phased_tasks.push_back(Task::periodic_phased(
          t.name(), t.weight(), 1 + k % 2, 8 * kPool + 2));
    }
    const TaskSystem phased(std::move(phased_tasks), base.processors());
    const CycleSchedule pc = schedule_sfq_cyclic(phased, opts);
    EXPECT_FALSE(pc.stats().engaged) << "seed " << seed;
    std::string why;
    ASSERT_TRUE(same_sfq(schedule_sfq_reference(phased, opts),
                         schedule_sfq(phased, opts), phased, &why))
        << "seed " << seed << ": " << why;

    // IS jitter: sporadic task kinds are not fingerprintable.
    const TaskSystem jittered = add_is_jitter(
        make_cyclic_system(seed, 8), 3, 1, 3,
        static_cast<std::uint64_t>(seed));
    const CycleSchedule jc = schedule_sfq_cyclic(jittered, opts);
    EXPECT_FALSE(jc.stats().engaged) << "seed " << seed;
    ASSERT_TRUE(same_sfq(schedule_sfq_reference(jittered, opts),
                         schedule_sfq(jittered, opts), jittered, &why))
        << "seed " << seed << ": " << why;

    // Bernoulli yields: costs are not a periodic function of the seq,
    // so the DVQ detector must not engage even on a periodic system.
    const TaskSystem sys = make_cyclic_system(seed, 8);
    const BernoulliYield bern(static_cast<std::uint64_t>(seed) * 31 + 7, 1,
                              2, kTick, kQuantum - kTick);
    DvqOptions dopts;
    dopts.policy = kAllPolicies[seed % 4];
    dopts.horizon_limit = 6 * kPool;
    const DvqCycleSchedule bc = schedule_dvq_cyclic(sys, bern, dopts);
    EXPECT_FALSE(bc.stats().engaged) << "seed " << seed;
    ASSERT_TRUE(same_dvq(schedule_dvq_reference(sys, bern, dopts),
                         schedule_dvq(sys, bern, dopts), sys, &why))
        << "seed " << seed << ": " << why;
  }
}

// Observed runs never fast-forward: schedule_sfq_cyclic itself falls
// back when a trace sink or metrics registry is attached, so trace
// streams are never elided.
TEST(CycleFastForward, InstrumentedRunsNeverEngage) {
  const TaskSystem sys = make_cyclic_system(1, 8);
  SfqOptions opts;
  opts.horizon_limit = 6 * kPool;
  ASSERT_TRUE(schedule_sfq_cyclic(sys, opts).stats().engaged);

  InvariantAuditor audit(sys);
  SfqOptions iopts = opts;
  iopts.trace = &audit;
  EXPECT_FALSE(schedule_sfq_cyclic(sys, iopts).stats().engaged);
  EXPECT_TRUE(audit.clean()) << audit.findings().front().str();
}

// An explain sink keeps every entry point on the one decision path: the
// cyclic entry points (and schedule_sfq_into) stream exactly what the
// plain entry point streams, each decision's explanation included, and
// materialize to its schedule.  Observed, they never engage.
TEST(CycleFastForward, ExplainedCyclicRunsStreamAsThePlainEntryPoint) {
  const auto explained = [](const std::string& jsonl) {
    return jsonl.find("\"k\": \"ready_set\"") != std::string::npos;
  };
  for (int seed = 0; seed < 12; ++seed) {
    const TaskSystem sys = make_cyclic_system(seed, 4);
    const BernoulliYield yields(static_cast<std::uint64_t>(seed) * 31 + 7, 1,
                                2, kTick, kQuantum - kTick);
    for (const Policy policy : kAllPolicies) {
      const std::string tag =
          "seed " + std::to_string(seed) + " " + to_string(policy);
      std::string why;
      {
        SfqOptions opts;
        opts.policy = policy;
        opts.horizon_limit = 3 * kPool;
        std::ostringstream plain_os;
        JsonlSink plain_sink(plain_os);
        opts.trace = &plain_sink;
        const SlotSchedule plain = schedule_sfq(sys, opts);
        std::ostringstream cyc_os;
        JsonlSink cyc_sink(cyc_os);
        opts.trace = &cyc_sink;
        const CycleSchedule cyc = schedule_sfq_cyclic(sys, opts);
        std::ostringstream into_os;
        JsonlSink into_sink(into_os);
        opts.trace = &into_sink;
        SlotSchedule into(sys);
        schedule_sfq_into(sys, opts, into);
        EXPECT_TRUE(explained(plain_os.str())) << tag;
        EXPECT_EQ(cyc_os.str(), plain_os.str()) << tag << " sfq cyclic";
        EXPECT_EQ(into_os.str(), plain_os.str()) << tag << " sfq into";
        EXPECT_FALSE(cyc.stats().engaged) << tag;
        EXPECT_TRUE(same_sfq(cyc.materialize(), plain, sys, &why))
            << tag << " sfq: " << why;
        EXPECT_TRUE(same_sfq(into, plain, sys, &why))
            << tag << " sfq into: " << why;
      }
      {
        DvqOptions opts;
        opts.policy = policy;
        opts.horizon_limit = 3 * kPool;
        std::ostringstream plain_os;
        JsonlSink plain_sink(plain_os);
        opts.trace = &plain_sink;
        const DvqSchedule plain = schedule_dvq(sys, yields, opts);
        std::ostringstream cyc_os;
        JsonlSink cyc_sink(cyc_os);
        opts.trace = &cyc_sink;
        const DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, yields, opts);
        EXPECT_TRUE(explained(plain_os.str())) << tag;
        EXPECT_EQ(cyc_os.str(), plain_os.str()) << tag << " dvq cyclic";
        EXPECT_FALSE(cyc.stats().engaged) << tag;
        EXPECT_TRUE(same_dvq(cyc.materialize(), plain, sys, &why))
            << tag << " dvq: " << why;
      }
    }
  }
}

void expect_same_summary(const TardinessSummary& a, const TardinessSummary& b,
                         const std::string& what) {
  EXPECT_EQ(a.max_ticks, b.max_ticks) << what;
  EXPECT_EQ(a.total_ticks, b.total_ticks) << what;
  EXPECT_EQ(a.late_subtasks, b.late_subtasks) << what;
  EXPECT_EQ(a.total_subtasks, b.total_subtasks) << what;
  EXPECT_EQ(a.unscheduled, b.unscheduled) << what;
  EXPECT_EQ(a.worst, b.worst) << what;
}

/// Violations whose subtask lies in a skipped cycle (placed in the
/// compressed schedule, absent from its stored part).
template <class Cyc>
std::size_t synthesized_violations(const Cyc& cyc, const ValidityReport& r) {
  std::size_t n = 0;
  for (const Violation& v : r.violations) {
    if (!v.ref.valid()) continue;
    const auto stored = cyc.stored().placement(v.ref);
    const auto spliced = cyc.placement(v.ref);
    if constexpr (std::is_same_v<decltype(stored), const SlotPlacement>) {
      if (!stored.scheduled() && spliced.scheduled()) ++n;
    } else {
      if (!stored.placed && spliced.placed) ++n;
    }
  }
  return n;
}

// Every analysis consumes the CycleSchedule unchanged: identical
// verdicts to the materialized schedule, and the InvariantAuditor
// replayed from the compressed representation reports zero findings.
TEST(CycleFastForward, AnalysesAndAuditorConsumeCycleSchedule) {
  std::size_t synthesized = 0;
  for (int seed = 0; seed < 16; ++seed) {
    const TaskSystem sys = make_cyclic_system(seed, 8);
    SfqOptions opts;
    opts.policy = kAllPolicies[seed % 4];
    if (opts.policy == Policy::kEpdf && sys.processors() > 2) {
      opts.policy = Policy::kPd2;
    }
    opts.horizon_limit = 6 * kPool;
    const CycleSchedule cyc = schedule_sfq_cyclic(sys, opts);
    ASSERT_TRUE(cyc.stats().engaged) << "seed " << seed;
    const SlotSchedule flat = cyc.materialize();

    // Validity: the same report, violation for violation — also with an
    // allowance of -1, which fails every subtask completing at its
    // deadline.
    EXPECT_EQ(check_slot_schedule(sys, cyc).str(SIZE_MAX),
              check_slot_schedule(sys, flat).str(SIZE_MAX))
        << "seed " << seed;
    const ValidityReport strict = check_slot_schedule(sys, cyc, -1);
    EXPECT_EQ(strict.str(SIZE_MAX),
              check_slot_schedule(sys, flat, -1).str(SIZE_MAX))
        << "seed " << seed;
    synthesized += synthesized_violations(cyc, strict);

    // Lag: identical extrema over the full horizon, and Pfairness holds
    // either way.
    const std::int64_t h = cyc.horizon();
    const LagRange lr_c = lag_range(sys, cyc, h);
    const LagRange lr_f = lag_range(sys, flat, h);
    EXPECT_TRUE(lr_c.min == lr_f.min && lr_c.max == lr_f.max)
        << "seed " << seed;
    EXPECT_EQ(is_pfair(sys, cyc, h), is_pfair(sys, flat, h));
    EXPECT_TRUE(lag(sys, cyc, 0, h / 2) == lag(sys, flat, 0, h / 2));

    // Tardiness: identical summaries and value vectors.
    expect_same_summary(measure_tardiness(sys, cyc),
                        measure_tardiness(sys, flat),
                        "seed " + std::to_string(seed));
    EXPECT_EQ(tardiness_values_ticks(sys, cyc),
              tardiness_values_ticks(sys, flat));

    // The auditor accepts a CycleSchedule-backed run with zero findings.
    InvariantAuditor audit(sys);
    replay_decisions(sys, cyc, audit);
    EXPECT_TRUE(audit.clean())
        << "seed " << seed << ": " << audit.total_findings() << " findings, "
        << (audit.findings().empty() ? std::string("<none stored>")
                                     : audit.findings().front().str());

    // slot_contents agrees inside the synthesized window.
    const std::int64_t probe =
        cyc.stats().detect_slot + cyc.stats().slots_skipped / 2;
    EXPECT_EQ(cyc.slot_contents(probe), flat.slot_contents(probe))
        << "seed " << seed;
  }
  // Fully loaded seeds complete subtasks at their deadlines inside the
  // skipped cycles, so the strict leg compared violations there.
  EXPECT_GT(synthesized, 0u);
}

// DVQ analyses likewise: validity and tardiness on the compressed
// schedule match the materialized run — under full-quantum yields and
// under steady_state's fixed 3/4-quantum yields, which desynchronize the
// schedule (tardiness below one quantum) and so fail the allowance-zero
// check inside synthesized cycles.
TEST(CycleFastForward, DvqAnalysesConsumeCycleSchedule) {
  const FullQuantumYield full;
  const FixedYield three_quarters(Time::slots_frac(0, 1, 4));
  for (const YieldModel* y :
       std::initializer_list<const YieldModel*>{&full, &three_quarters}) {
    int engaged = 0;
    std::size_t synthesized = 0;
    for (int seed = 0; seed < 8; ++seed) {
      const TaskSystem sys = make_cyclic_system(seed, 8);
      DvqOptions opts;
      opts.horizon_limit = 6 * kPool;
      const DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, *y, opts);
      if (!cyc.stats().engaged) continue;
      ++engaged;
      const DvqSchedule flat = cyc.materialize();
      const std::string what = "seed " + std::to_string(seed) +
                               (y == &full ? " full" : " 3/4");

      EXPECT_EQ(check_dvq_schedule(sys, cyc, kQuantum).str(SIZE_MAX),
                check_dvq_schedule(sys, flat, kQuantum).str(SIZE_MAX))
          << what;
      const ValidityReport strict = check_dvq_schedule(sys, cyc, Time());
      EXPECT_EQ(strict.str(SIZE_MAX),
                check_dvq_schedule(sys, flat, Time()).str(SIZE_MAX))
          << what;
      synthesized += synthesized_violations(cyc, strict);

      expect_same_summary(measure_tardiness(sys, cyc),
                          measure_tardiness(sys, flat), what);
      EXPECT_EQ(tardiness_values_ticks(sys, cyc),
                tardiness_values_ticks(sys, flat))
          << what;
    }
    // A silent `continue` on every seed would leave nothing compared.
    EXPECT_GT(engaged, 0);
    if (y == &three_quarters) {
      EXPECT_GT(synthesized, 0u);
    }
  }
}

// The splice contract: a hand-built compressed schedule whose base cycle
// lacks a placement that a synthesized subtask copies makes every whole-
// schedule pass throw, exactly as random access through placement() does.
// One task of weight 1/2 on one processor, a 4-slot cycle [0, 4) skipped
// once: seqs 2 and 3 are copies of seqs 0 and 1 shifted by 4 slots, and
// seq 0 is never placed (seq 1, the base of the last synthesized seq,
// is, so construction succeeds).
TEST(CycleFastForward, MissingBasePlacementViolatesSpliceContract) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("T", Weight(1, 2), 12));
  const TaskSystem sys(std::move(tasks), 1);
  ASSERT_EQ(sys.task(0).num_subtasks(), 6);
  CycleStats stats;
  stats.engaged = true;
  stats.prefix_slots = 0;
  stats.cycle_slots = 4;
  stats.detect_slot = 4;
  stats.cycles_skipped = 1;
  stats.slots_skipped = 4;
  const std::vector<TaskSplice> splices = {
      TaskSplice{/*cycle_begin=*/0, /*skip_begin=*/2, /*per_cycle=*/2,
                 /*skip_count=*/2}};
  const auto ref = [](std::int32_t seq) { return SubtaskRef{0, seq}; };

  SlotSchedule slots(sys);
  slots.place(ref(1), 2, 0);
  slots.place(ref(4), 8, 0);
  slots.place(ref(5), 10, 0);
  const CycleSchedule cyc(std::move(slots), stats, splices, false);
  EXPECT_EQ(cyc.placement(ref(3)).slot, 6);
  EXPECT_THROW((void)cyc.placement(ref(2)), ContractViolation);
  EXPECT_THROW((void)check_slot_schedule(sys, cyc), ContractViolation);
  EXPECT_THROW((void)measure_tardiness(sys, cyc), ContractViolation);
  EXPECT_THROW((void)tardiness_values_ticks(sys, cyc), ContractViolation);

  DvqSchedule dvq(sys);
  dvq.place(ref(1), Time::slots(2), kQuantum, 0);
  dvq.place(ref(4), Time::slots(8), kQuantum, 0);
  dvq.place(ref(5), Time::slots(10), kQuantum, 0);
  const DvqCycleSchedule dcyc(std::move(dvq), stats, splices, false);
  EXPECT_EQ(dcyc.placement(ref(3)).start, Time::slots(6));
  EXPECT_THROW((void)dcyc.placement(ref(2)), ContractViolation);
  EXPECT_THROW((void)check_dvq_schedule(sys, dcyc, kQuantum),
               ContractViolation);
  EXPECT_THROW((void)measure_tardiness(sys, dcyc), ContractViolation);
  EXPECT_THROW((void)tardiness_values_ticks(sys, dcyc), ContractViolation);
}

/// Counts the violations of a report by where their subtask lies in an
/// engaged compressed schedule, by start time: synthesized cycle 1,
/// synthesized cycle m, the join into the tail (the last slot of cycle
/// m or the first of the tail) and the tail.
struct RegionHits {
  int first = 0, last = 0, join = 0, tail = 0;

  template <class Cyc>
  void add(const Cyc& cyc, const ValidityReport& rep) {
    const CycleStats& st = cyc.stats();
    const std::int64_t q = kTicksPerSlot;
    const std::int64_t t1 = st.detect_slot * q;
    const std::int64_t c = st.cycle_slots * q;
    const std::int64_t end = t1 + st.slots_skipped * q;
    for (const Violation& v : rep.violations) {
      if (!v.ref.valid()) continue;
      const auto p = cyc.placement(v.ref);
      std::int64_t at = 0;
      if constexpr (std::is_same_v<decltype(p), const SlotPlacement>) {
        if (!p.scheduled()) continue;
        at = p.slot * q;
      } else {
        if (!p.placed) continue;
        at = p.start.raw_ticks();
      }
      first += at >= t1 && at < t1 + c;
      last += at >= end - c && at < end;
      join += at >= end - q && at < end + q;
      tail += at >= end;
    }
  }
  void expect_all(const std::string& what) const {
    EXPECT_GT(first, 0) << what;
    EXPECT_GT(last, 0) << what;
    EXPECT_GT(join, 0) << what;
    EXPECT_GT(tail, 0) << what;
  }
};

/// Geometry of the engaged cases a sweep compared: how many skipped one,
/// two and at least three cycles, how many simulated a tail after the
/// skipped window, and how many the once-per-cycle pass certified clean.
struct GeometryHits {
  int m1 = 0, m2 = 0, m3 = 0, tail = 0, certified = 0;

  void add(const CycleStats& st, bool has_tail) {
    m1 += st.cycles_skipped == 1;
    m2 += st.cycles_skipped == 2;
    m3 += st.cycles_skipped >= 3;
    tail += has_tail;
  }
  void expect_all(const std::string& what) const {
    EXPECT_GT(m1, 0) << what;
    EXPECT_GT(m2, 0) << what;
    EXPECT_GT(m3, 0) << what;
    EXPECT_GT(tail, 0) << what;
    EXPECT_GT(certified, 0) << what;
  }
};

/// One sweep case: a system covering `coverage` pool periods plus
/// `extra` slots, run to `horizon` (0: to completion).
struct SweepCase {
  std::int64_t coverage, extra, horizon;
};
// Complete runs whose coverage stops mid-cycle (a simulated tail after
// the skipped cycles; clean schedules the pass certifies), and runs cut
// at 2, 3 and 6.5 pool periods plus a few slots (with H | 24 these skip
// one, two and several cycles; unscheduled subtasks in the tail).
constexpr SweepCase kSweep[] = {{3, 5, 0},          {4, 7, 0},
                                {9, 13, 0},         {8, 0, 2 * kPool + 5},
                                {8, 0, 3 * kPool + 7}, {8, 0, 6 * kPool + 13}};

std::string sweep_name(const char* model, int seed, const SweepCase& c) {
  return std::string(model) + " seed " + std::to_string(seed) +
         " coverage " + std::to_string(c.coverage) + "+" +
         std::to_string(c.extra) + " horizon " + std::to_string(c.horizon);
}

// The once-per-cycle analyses of a compressed schedule — one synthesized
// cycle walked, cycles 2..m accounted in closed form — report exactly
// what the plain checkers report on the materialized schedule: the full
// validity text and every tardiness field, `worst` included.  Seeded SFQ
// and DVQ sweeps (all four policies; fixed yields of 1/4, 3/4 and a full
// quantum) over geometries skipping one, two and several cycles with a
// simulated tail; allowances of -1 and 0 (and a quantum for DVQ) put
// violations in cycle 1, in cycle m, at the join into the tail and in
// the tail, and leave clean schedules the pass certifies.
TEST(CycleFastForward, CompressedAnalysisMatchesMaterializedAcrossGeometries) {
  RegionHits sfq_regions;
  GeometryHits sfq_geometry;
  for (int seed = 0; seed < 24; ++seed) {
    for (const SweepCase& c : kSweep) {
      const TaskSystem sys = make_cyclic_system(seed, c.coverage, c.extra);
      SfqOptions opts;
      opts.policy = kAllPolicies[seed % 4];
      opts.horizon_limit = c.horizon;
      const CycleSchedule cyc = schedule_sfq_cyclic(sys, opts);
      if (!cyc.stats().engaged) continue;
      const std::string what = sweep_name("sfq", seed, c);
      EXPECT_TRUE(cyc.repeats_exactly(sys)) << what;
      const SlotSchedule flat = cyc.materialize();
      sfq_geometry.add(cyc.stats(),
                       cyc.stats().sim_slots > cyc.stats().detect_slot);
      for (const std::int64_t allowance : {std::int64_t{-1}, std::int64_t{0}}) {
        const ValidityReport rep = check_slot_schedule(sys, cyc, allowance);
        EXPECT_EQ(rep.str(SIZE_MAX),
                  check_slot_schedule(sys, flat, allowance).str(SIZE_MAX))
            << what << " allowance " << allowance;
        sfq_regions.add(cyc, rep);
        sfq_geometry.certified += rep.valid();
      }
      expect_same_summary(measure_tardiness(sys, cyc),
                          measure_tardiness(sys, flat), what);
    }
  }
  sfq_regions.expect_all("sfq");
  sfq_geometry.expect_all("sfq");

  const FixedYield quarter(Time::slots_frac(0, 3, 4));
  const FixedYield three_quarters(Time::slots_frac(0, 1, 4));
  const FullQuantumYield full;
  RegionHits dvq_regions;
  GeometryHits dvq_geometry;
  for (const YieldModel* y : std::initializer_list<const YieldModel*>{
           &quarter, &three_quarters, &full}) {
    for (int seed = 0; seed < 16; ++seed) {
      for (const SweepCase& c : kSweep) {
        const TaskSystem sys = make_cyclic_system(seed, c.coverage, c.extra);
        DvqOptions opts;
        opts.policy = kAllPolicies[seed % 4];
        opts.horizon_limit = c.horizon;
        const DvqCycleSchedule cyc = schedule_dvq_cyclic(sys, *y, opts);
        if (!cyc.stats().engaged) continue;
        const std::string what = sweep_name("dvq", seed, c) +
                                 (y == &quarter          ? " cost 1/4"
                                  : y == &three_quarters ? " cost 3/4"
                                                         : " full");
        EXPECT_TRUE(cyc.repeats_exactly(sys)) << what;
        const DvqSchedule flat = cyc.materialize();
        dvq_geometry.add(cyc.stats(), cyc.stats().sim_slots >
                                          cyc.stats().detect_slot);
        for (const Time allowance : {Time() - kQuantum, Time(), kQuantum}) {
          const ValidityReport rep = check_dvq_schedule(sys, cyc, allowance);
          EXPECT_EQ(rep.str(SIZE_MAX),
                    check_dvq_schedule(sys, flat, allowance).str(SIZE_MAX))
              << what << " allowance " << allowance;
          dvq_regions.add(cyc, rep);
          dvq_geometry.certified += rep.valid();
        }
        expect_same_summary(measure_tardiness(sys, cyc),
                            measure_tardiness(sys, flat), what);
      }
    }
  }
  dvq_regions.expect_all("dvq");
  dvq_geometry.expect_all("dvq");
}

/// Splice geometry of a hand-built compressed schedule.
CycleStats splice_stats(std::int64_t t0, std::int64_t cycle,
                        std::int64_t cycles) {
  CycleStats stats;
  stats.engaged = true;
  stats.prefix_slots = t0;
  stats.cycle_slots = cycle;
  stats.detect_slot = t0 + cycle;
  stats.cycles_skipped = cycles;
  stats.slots_skipped = cycles * cycle;
  return stats;
}

/// One task on one processor, spliced by `splice` with its stored seqs
/// at the listed slots (whole-quantum DVQ allocations at the same
/// slots): the side check must reject it, and validity (at `allowance`
/// slots) and tardiness must still equal the materialized schedule's,
/// the validity report not being clean.
void expect_side_check_rejects(
    const Task& task, const CycleStats& stats, const TaskSplice& splice,
    const std::vector<std::pair<std::int32_t, std::int64_t>>& placed,
    std::int64_t allowance, const std::string& what) {
  std::vector<Task> tasks{task};
  const TaskSystem sys(std::move(tasks), 1);
  SlotSchedule slots(sys);
  DvqSchedule dvq(sys);
  for (const auto& [seq, slot] : placed) {
    slots.place(SubtaskRef{0, seq}, slot, 0);
    dvq.place(SubtaskRef{0, seq}, Time::slots(slot), kQuantum, 0);
  }
  const CycleSchedule cyc(std::move(slots), stats, {splice}, true);
  const DvqCycleSchedule dcyc(std::move(dvq), stats, {splice}, true);
  EXPECT_FALSE(cyc.repeats_exactly(sys)) << what;
  EXPECT_FALSE(dcyc.repeats_exactly(sys)) << what;
  const SlotSchedule flat = cyc.materialize();
  const DvqSchedule dflat = dcyc.materialize();
  const ValidityReport rep = check_slot_schedule(sys, cyc, allowance);
  EXPECT_FALSE(rep.valid()) << what;
  EXPECT_EQ(rep.str(SIZE_MAX),
            check_slot_schedule(sys, flat, allowance).str(SIZE_MAX))
      << what;
  EXPECT_EQ(check_dvq_schedule(sys, dcyc, Time::slots(allowance)).str(SIZE_MAX),
            check_dvq_schedule(sys, dflat, Time::slots(allowance)).str(SIZE_MAX))
      << what;
  expect_same_summary(measure_tardiness(sys, cyc),
                      measure_tardiness(sys, flat), what);
  expect_same_summary(measure_tardiness(sys, dcyc),
                      measure_tardiness(sys, dflat), what);
}

// A splice whose synthesized cycles do not repeat exactly fails the side
// check and gets the full walk.  In every case the stored part and cycle
// 1 are clean (at the given allowance), so only the side check keeps the
// once-per-cycle pass from certifying the schedule.  Weight 1/4, one
// subtask per cycle: with C = 3 the windows outrun the placements (seqs
// 3 and 4 run before they are eligible); with C = 5 the placements
// outrun the windows (seq 4 completes late, which only the tardiness sums
// show).  Weight 1/2 with p | C but two subtasks per 2-slot cycle
// (per_cycle·p != e·C): late base placements drift early until seq 6
// runs before it is eligible.  Early-release raw weight 3/6, one subtask
// per 2-slot cycle (per_cycle·p == e·C, but p does not divide C): the
// windows repeat, the raw jobs of three subtasks do not, and seq 3 runs
// before its job is released.
TEST(CycleFastForward, SideCheckRejectsSplicesThatDoNotRepeat) {
  const Task quarter = Task::periodic("T", Weight(1, 4), 32);
  expect_side_check_rejects(quarter, splice_stats(0, 3, 4), {0, 1, 1, 4},
                            {{0, 2}, {5, 20}, {6, 24}, {7, 28}}, 0, "C = 3");
  expect_side_check_rejects(quarter, splice_stats(0, 5, 4), {0, 1, 1, 4},
                            {{0, 0}, {5, 25}, {6, 26}, {7, 27}}, 0, "C = 5");
  expect_side_check_rejects(
      Task::periodic("T", Weight(1, 2), 20), splice_stats(6, 2, 2),
      {1, 3, 2, 4}, {{0, 0}, {1, 6}, {2, 7}, {7, 14}, {8, 16}, {9, 18}}, 3,
      "two subtasks per cycle");
  expect_side_check_rejects(
      Task::periodic("T", Weight(3, 6), 16).with_early_release(),
      splice_stats(1, 2, 3), {1, 2, 1, 3},
      {{0, 0}, {1, 1}, {5, 9}, {6, 12}, {7, 14}}, 0, "raw jobs drift");
}

/// A DVQ splice with a 2-slot cycle skipped three times (m = 3): tasks
/// of weight 1/2 over 12 slots, each with base seq 0, synthesized seqs
/// 1..3 and tail seqs 4 and 5, given as {start in quarter slots, proc}.
DvqCycleSchedule hand_built_dvq_splice(
    const TaskSystem& sys,
    const std::vector<std::vector<std::pair<std::int64_t, int>>>& placed) {
  CycleStats stats;
  stats.engaged = true;
  stats.prefix_slots = 0;
  stats.cycle_slots = 2;
  stats.detect_slot = 2;
  stats.cycles_skipped = 3;
  stats.slots_skipped = 6;
  DvqSchedule dvq(sys);
  std::vector<TaskSplice> splices;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    splices.push_back(TaskSplice{0, 1, 1, 3});
    const auto& seqs = placed[static_cast<std::size_t>(k)];
    const std::int32_t at[] = {0, 4, 5};
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      dvq.place(SubtaskRef{k, at[i]},
                Time::ticks(seqs[i].first * kTicksPerSlot / 4), kQuantum,
                seqs[i].second);
    }
  }
  return DvqCycleSchedule(std::move(dvq), stats, std::move(splices), true);
}

TaskSystem half_weight_tasks(int count, int procs) {
  std::vector<Task> tasks;
  for (int k = 0; k < count; ++k) {
    tasks.push_back(Task::periodic("T" + std::to_string(k), Weight(1, 2), 12));
  }
  return TaskSystem(std::move(tasks), procs);
}

/// The ContractViolation message `f` throws, or a marker if it throws
/// none.
template <class F>
std::string contract_message(F&& f) {
  try {
    f();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "<no ContractViolation>";
}

/// Drives the engaged splice constructor over `stored` (two tasks of six
/// subtasks, base seqs 0 and 1 placed) through each of its contracts.
template <class Stored>
void expect_splice_contracts(const Stored& stored, const std::string& what) {
  const CycleStats stats = splice_stats(0, 4, 1);
  const TaskSplice ok{0, 2, 2, 2};
  const auto build = [&](std::vector<TaskSplice> splices) {
    return [&stored, &stats, splices] {
      (void)SplicedSchedule<Stored>(stored, stats, splices, false);
    };
  };
  EXPECT_EQ(contract_message(build({ok, ok})), "<no ContractViolation>")
      << what;
  using Splices = std::vector<TaskSplice>;
  for (const Splices& count : {Splices{ok}, Splices{ok, ok, ok}}) {
    const std::string msg = contract_message(build(count));
    EXPECT_NE(msg.find("one splice per task required"), std::string::npos)
        << what << ": " << msg;
  }
  // skip_begin + skip_count past num_subtasks, then skip_count > 0 with
  // per_cycle == 0.
  for (const TaskSplice& bad : {TaskSplice{0, 2, 2, 6}, TaskSplice{0, 2, 0, 2}}) {
    const std::string msg = contract_message(build({ok, bad}));
    EXPECT_NE(msg.find("splice of task 1 out of range"), std::string::npos)
        << what << ": " << msg;
  }
}

// The engaged splice constructor rejects malformed splices with a
// ContractViolation, never an out-of-range read: a splice count other
// than one per task, a synthesized range past the task's subtasks, and
// synthesized seqs with no per-cycle count — for both stored types.
TEST(CycleFastForward, SpliceConstructorRejectsMalformedSplices) {
  const TaskSystem sys = half_weight_tasks(2, 2);
  SlotSchedule slots(sys);
  DvqSchedule dvq(sys);
  for (std::int32_t k = 0; k < 2; ++k) {
    for (std::int32_t seq = 0; seq < 2; ++seq) {
      slots.place(SubtaskRef{k, seq}, 2 * seq, k);
      dvq.place(SubtaskRef{k, seq}, Time::slots(2 * seq), kQuantum, k);
    }
  }
  expect_splice_contracts(slots, "sfq");
  expect_splice_contracts(dvq, "dvq");
}

// The joins out of synthesized cycle m into the stored tail.  The only
// violation of each hand-built splice sits there, so the once-per-cycle
// pass finds it only through cycle m's last placements: task A's base
// allocation [1.5, 2.5) straddles the detect boundary, so its cycle-m
// copy [7.5, 8.5) straddles the tail boundary at slot 8.
TEST(CycleFastForward, JoinIntoTheTailIsChecked) {
  // One processor: B's tail allocation [8.25, 9.25) overlaps A's cycle-m
  // copy — a lane overlap across the join.
  const TaskSystem two = half_weight_tasks(2, 1);
  const DvqCycleSchedule lane = hand_built_dvq_splice(
      two, {{{6, 0}, {38, 0}, {46, 0}}, {{2, 0}, {33, 0}, {42, 0}}});
  ASSERT_TRUE(lane.repeats_exactly(two));
  const ValidityReport lane_rep = check_dvq_schedule(two, lane, kQuantum);
  EXPECT_EQ(lane_rep.violations.size(), 1u) << lane_rep.str(SIZE_MAX);
  EXPECT_EQ(lane_rep.str(SIZE_MAX),
            check_dvq_schedule(two, lane.materialize(), kQuantum)
                .str(SIZE_MAX));

  // Two processors: A's own tail seq 4 starts at 8.25, on the other
  // processor, before its cycle-m predecessor completes at 8.5.
  const TaskSystem one = half_weight_tasks(1, 2);
  const DvqCycleSchedule self =
      hand_built_dvq_splice(one, {{{6, 0}, {33, 1}, {42, 1}}});
  ASSERT_TRUE(self.repeats_exactly(one));
  const ValidityReport self_rep = check_dvq_schedule(one, self, kQuantum);
  EXPECT_EQ(self_rep.violations.size(), 1u) << self_rep.str(SIZE_MAX);
  EXPECT_EQ(self_rep.str(SIZE_MAX),
            check_dvq_schedule(one, self.materialize(), kQuantum)
                .str(SIZE_MAX));
}

// A hand-built splice whose base cycle is rotated out of [t0, t1): base
// seq 0 of a weight-1/2 task sits at slot 2 = t1, so each synthesized
// cycle reaches one slot into the next and cycle m into the tail.  Every
// subtask is within an allowance of one slot and nothing overlaps, but
// the once-per-cycle pass cannot stand for this layout (synthesized slots
// fall outside the slots it counts); it must hand over to the full walk
// and report the same — not throw, not miscount.
TEST(CycleFastForward, BaseCycleOutsideItsWindowGetsTheFullWalk) {
  const TaskSystem sys = half_weight_tasks(1, 1);
  CycleStats stats;
  stats.engaged = true;
  stats.cycle_slots = 2;
  stats.detect_slot = 2;
  stats.cycles_skipped = 3;
  stats.slots_skipped = 6;
  const std::vector<TaskSplice> splices = {TaskSplice{0, 1, 1, 3}};
  SlotSchedule slots(sys);
  DvqSchedule dvq(sys);
  for (const auto& [seq, slot] : {std::pair<std::int32_t, std::int64_t>{0, 2},
                                  {4, 9},
                                  {5, 11}}) {
    slots.place(SubtaskRef{0, seq}, slot, 0);
    dvq.place(SubtaskRef{0, seq}, Time::slots(slot), kQuantum, 0);
  }
  const CycleSchedule cyc(std::move(slots), stats, splices, true);
  const DvqCycleSchedule dcyc(std::move(dvq), stats, splices, true);
  ASSERT_TRUE(cyc.repeats_exactly(sys));
  ASSERT_TRUE(dcyc.repeats_exactly(sys));
  for (const std::int64_t allowance : {std::int64_t{0}, std::int64_t{1}}) {
    EXPECT_EQ(check_slot_schedule(sys, cyc, allowance).str(SIZE_MAX),
              check_slot_schedule(sys, cyc.materialize(), allowance)
                  .str(SIZE_MAX));
    const Time dallow = Time::slots(allowance);
    EXPECT_EQ(check_dvq_schedule(sys, dcyc, dallow).str(SIZE_MAX),
              check_dvq_schedule(sys, dcyc.materialize(), dallow)
                  .str(SIZE_MAX));
  }
  EXPECT_TRUE(check_slot_schedule(sys, cyc, 1).valid());
  EXPECT_TRUE(check_dvq_schedule(sys, dcyc, kQuantum).valid());
}

// The generalized periodicity check and the online detector agree: a
// system whose schedule the offline check certifies periodic is one the
// online detector fast-forwards.
TEST(CycleFastForward, OfflineCheckAgreesWithOnlineDetector) {
  for (int seed = 0; seed < 12; ++seed) {
    const TaskSystem sys = make_cyclic_system(seed, 8);
    SfqOptions opts;
    opts.policy =
        sys.processors() > 2 ? Policy::kPd2 : kAllPolicies[seed % 4];
    opts.horizon_limit = 6 * kPool;
    opts.cycle_detect = false;  // the offline check needs the full run
    const SlotSchedule full = schedule_sfq(sys, opts);
    const PeriodicityReport rep = check_schedule_periodicity(sys, full);
    ASSERT_TRUE(rep.applicable) << "seed " << seed;
    EXPECT_TRUE(rep.periodic) << "seed " << seed;

    opts.cycle_detect = true;
    EXPECT_TRUE(schedule_sfq_cyclic(sys, opts).stats().engaged)
        << "seed " << seed;
  }
}

// --- Storage: a probing run stores only the seqs it simulates ---
//
// A probing run grows its store ahead of the slots it simulates and a
// warp leaves the skipped seqs unstored (sched/cell_store.hpp).  Every
// relayout path must keep the schedule bit-identical to the reference
// and to the unprobed full run, and the store must read the skipped
// seqs as unplaced.

std::int64_t start_ticks(const SlotPlacement& p) {
  return p.scheduled() ? p.slot * kTicksPerSlot : -1;
}
std::int64_t start_ticks(const DvqPlacement& p) {
  return p.placed ? p.start.raw_ticks() : -1;
}
bool same_placement(const SlotPlacement& a, const SlotPlacement& b) {
  return a.slot == b.slot && a.proc == b.proc;
}
bool same_placement(const DvqPlacement& a, const DvqPlacement& b) {
  return a.placed == b.placed && a.start == b.start && a.cost == b.cost &&
         a.proc == b.proc;
}

/// Reads every seq through `cyc` and through its store: a placement
/// starting in the skipped window is synthesized, so the store must read
/// it unplaced; any other must read alike from both.  The store's
/// walk_task must read as its placement().  Returns the number of
/// skipped seqs; `mismatches` counts the seqs that break either rule.
template <class Cyc>
std::int64_t skipped_seqs(const TaskSystem& sys, const Cyc& cyc,
                          std::int64_t* mismatches) {
  const CycleStats& st = cyc.stats();
  const std::int64_t lo = st.detect_slot * kTicksPerSlot;
  const std::int64_t hi = (st.detect_slot + st.slots_skipped) * kTicksPerSlot;
  std::int64_t skipped = 0;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const auto spliced = cyc.placement(ref);
      const auto stored = cyc.stored().placement(ref);
      const std::int64_t at = start_ticks(spliced);
      if (st.engaged && at >= lo && at < hi) {
        ++skipped;
        *mismatches += start_ticks(stored) == -1 ? 0 : 1;
      } else {
        *mismatches += same_placement(spliced, stored) ? 0 : 1;
      }
    }
    std::int32_t next = 0;
    cyc.stored().walk_task(k, [&](std::int32_t s, const auto& p) {
      *mismatches += s == next++ &&
                             same_placement(p, cyc.stored().placement({k, s}))
                         ? 0
                         : 1;
    });
    *mismatches += next == sys.task(k).num_subtasks() ? 0 : 1;
  }
  return skipped;
}

/// Runs `sys` through both cyclic drivers with `limit`, checks each
/// against the reference and the unprobed run, and returns the stats
/// with the stored and skipped cell counts.
struct StoredRun {
  CycleStats sfq, dvq;
  std::int64_t sfq_stored = 0, sfq_skipped = 0;
  std::int64_t dvq_stored = 0, dvq_skipped = 0;
};
StoredRun run_both(const TaskSystem& sys, std::int64_t limit,
                   const YieldModel& yields, const std::string& tag) {
  StoredRun out;
  std::string why;
  SfqOptions sopts;
  sopts.horizon_limit = limit;
  const CycleSchedule sc = schedule_sfq_cyclic(sys, sopts);
  SfqOptions sfull = sopts;
  sfull.cycle_detect = false;
  const SlotSchedule sref = schedule_sfq_reference(sys, sopts);
  EXPECT_TRUE(same_sfq(sref, sc.materialize(), sys, &why)) << tag << why;
  EXPECT_TRUE(same_sfq(sref, schedule_sfq(sys, sfull), sys, &why))
      << tag << why;
  EXPECT_EQ(sc.materialize().stored_cells(), sys.total_subtasks()) << tag;
  std::int64_t bad = 0;
  out.sfq = sc.stats();
  out.sfq_skipped = skipped_seqs(sys, sc, &bad);
  out.sfq_stored = sc.stored().stored_cells();
  EXPECT_EQ(bad, 0) << tag << " SFQ store";

  DvqOptions dopts;
  dopts.horizon_limit = limit;
  const DvqCycleSchedule dc = schedule_dvq_cyclic(sys, yields, dopts);
  DvqOptions dfull = dopts;
  dfull.cycle_detect = false;
  const DvqSchedule dref = schedule_dvq_reference(sys, yields, dopts);
  EXPECT_TRUE(same_dvq(dref, dc.materialize(), sys, &why)) << tag << why;
  EXPECT_TRUE(same_dvq(dref, schedule_dvq(sys, yields, dfull), sys, &why))
      << tag << why;
  EXPECT_EQ(dc.materialize().stored_cells(), sys.total_subtasks()) << tag;
  bad = 0;
  out.dvq = dc.stats();
  out.dvq_skipped = skipped_seqs(sys, dc, &bad);
  out.dvq_stored = dc.stored().stored_cells();
  EXPECT_EQ(bad, 0) << tag << " DVQ store";
  return out;
}

// Recurrences found at the first boundary warp out of the first budget
// (one hyperperiod); later ones grow the store before they warp — under
// full quanta every DVQ run here recurs only at the second boundary.
// A complete run then stores exactly the seqs it did not skip.
TEST(CycleStorage, GrowsUntilTheRecurrenceThenStoresOnlyWhatItSimulates) {
  const FullQuantumYield yields;
  int late_dvq = 0;
  for (int seed = 0; seed < 48; ++seed) {
    const TaskSystem sys = make_cyclic_system(seed, 12);
    const std::int64_t hyper = fingerprint_period(sys);
    const std::string tag = "seed " + std::to_string(seed) + ": ";
    const StoredRun r = run_both(sys, 0, yields, tag);
    ASSERT_TRUE(r.sfq.engaged && r.dvq.engaged) << tag;
    EXPECT_EQ(r.sfq_stored, sys.total_subtasks() - r.sfq_skipped) << tag;
    EXPECT_EQ(r.dvq_stored, sys.total_subtasks() - r.dvq_skipped) << tag;
    EXPECT_EQ(r.sfq.detect_slot, hyper) << tag;
    late_dvq += r.dvq.detect_slot > hyper ? 1 : 0;
  }
  EXPECT_GE(late_dvq, 24);
}

// A probing run cut by horizon_limit stores no seq eligible only past
// the limit, though the task system has many.
TEST(CycleStorage, TruncatedProbeStoresNothingPastItsLimit) {
  const FixedYield yields(Time::slots_frac(0, 3, 4));
  for (int seed = 0; seed < 24; ++seed) {
    const TaskSystem sys = make_cyclic_system(seed, 40);
    const std::string tag = "seed " + std::to_string(seed) + ": ";
    const StoredRun r = run_both(sys, 6 * kPool, yields, tag);
    ASSERT_TRUE(r.sfq.engaged && r.dvq.engaged) << tag;
    EXPECT_LT(r.sfq_stored, sys.total_subtasks() / 4) << tag;
    EXPECT_LT(r.dvq_stored, sys.total_subtasks() / 4) << tag;
  }
}

// A probing run that never warps grows its store from the first
// hyperperiod's budget to the full shape.  Task C's one subtask runs
// dry by the first boundary, which ends the probe there.
TEST(CycleStorage, ProbeThatNeverRecursGrowsToTheFullShape) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 20 * kPool));
  tasks.push_back(Task::periodic("B", Weight(1, 3), 20 * kPool));
  tasks.push_back(Task::periodic("C", Weight(1, 6), 6));
  const TaskSystem sys(std::move(tasks), 1);
  const FixedYield yields(Time::slots_frac(0, 3, 4));
  const StoredRun r = run_both(sys, 0, yields, "");
  EXPECT_FALSE(r.sfq.engaged);
  EXPECT_FALSE(r.dvq.engaged);
  EXPECT_EQ(r.sfq_stored, sys.total_subtasks());
  EXPECT_EQ(r.dvq_stored, sys.total_subtasks());
}

// A store has one gap, so a second warp stores the first one's skipped
// seqs again (as unplaced cells) and leaves its own as the gap.  Two
// tasks of weight 1/2 on one processor repeat every two slots, so any
// warp by whole two-slot cycles is exact: every stored placement must
// match the reference, and exactly the skipped seqs (3 + 2 cycles, one
// seq per task each) must read unplaced.
TEST(CycleStorage, SecondWarpKeepsTheFirstWarpsSeqsUnplaced) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 40));
  tasks.push_back(Task::periodic("B", Weight(1, 2), 40));
  const TaskSystem sys(std::move(tasks), 1);
  const std::vector<std::int64_t> allocs = {1, 1};
  const auto check = [&](const auto& got, const auto& want) {
    int unplaced = 0;
    for (std::int32_t k = 0; k < 2; ++k) {
      for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
        const auto g = got.placement({k, s});
        if (start_ticks(g) == -1) {
          ++unplaced;
        } else {
          EXPECT_TRUE(same_placement(g, want.placement({k, s}))) << k << s;
        }
      }
    }
    EXPECT_EQ(unplaced, 2 * 5);
  };

  SfqSimulator sfq(sys);
  sfq.run_until(2);
  sfq.warp(3, 2, allocs);
  sfq.run_until(10);
  sfq.warp(2, 2, allocs);
  sfq.run_until(40);
  EXPECT_TRUE(sfq.done());
  check(sfq.schedule(), schedule_sfq_reference(sys));

  const FullQuantumYield yields;
  DvqSimulator dvq(sys, yields);
  dvq.run_until(Time::slots(2));
  dvq.warp(3, 2, allocs, 2);
  dvq.run_until(Time::slots(10));
  dvq.warp(2, 2, allocs, 10);
  dvq.run_until(Time::slots(40));
  EXPECT_TRUE(dvq.done());
  check(dvq.schedule(), schedule_dvq_reference(sys, yields));
}

// schedule_sfq_into refills a copy of a fast-forwarded run's stored
// schedule, skipped seqs and all, to the full run.
TEST(CycleStorage, ScheduleIntoRefillsAStoredCopy) {
  const TaskSystem sys = make_cyclic_system(3, 12);
  const CycleSchedule cyc = schedule_sfq_cyclic(sys, SfqOptions{});
  ASSERT_TRUE(cyc.stats().engaged);
  ASSERT_LT(cyc.stored().stored_cells(), sys.total_subtasks());
  SlotSchedule out = cyc.stored();
  schedule_sfq_into(sys, SfqOptions{}, out);
  EXPECT_EQ(out.stored_cells(), sys.total_subtasks());
  EXPECT_TRUE(out.complete());
  std::string why;
  EXPECT_TRUE(same_sfq(schedule_sfq_reference(sys), out, sys, &why)) << why;
  // And again, over the placements of the first refill.
  schedule_sfq_into(sys, SfqOptions{}, out);
  EXPECT_TRUE(same_sfq(schedule_sfq_reference(sys), out, sys, &why)) << why;
}

// The step API of an unprobed simulator grows its store as it steps, to
// every subtask by the end, and steps to the reference schedule.
TEST(CycleStorage, UnprobedStepApiStoresTheFullShape) {
  const TaskSystem sys = make_cyclic_system(5, 4);
  SfqSimulator sfq(sys);
  while (!sfq.done()) (void)sfq.step();
  std::string why;
  EXPECT_EQ(sfq.schedule().stored_cells(), sys.total_subtasks());
  EXPECT_TRUE(same_sfq(schedule_sfq_reference(sys), sfq.schedule(), sys, &why))
      << why;

  const FixedYield yields(Time::slots_frac(0, 3, 4));
  DvqSimulator dvq(sys, yields);
  while (dvq.has_events() && !dvq.done()) (void)dvq.step();
  EXPECT_EQ(dvq.schedule().stored_cells(), sys.total_subtasks());
  EXPECT_TRUE(same_dvq(schedule_dvq_reference(sys, yields), dvq.schedule(),
                       sys, &why))
      << why;
  // Cell indices are the task system's flat indices.
  for (const std::int64_t i : dvq.schedule().order_log()) {
    const DvqPlacement p = dvq.schedule().flat_placement(i);
    std::int32_t k = 0;
    while (sys.subtask_offset(k + 1) <= i) ++k;
    const auto seq = static_cast<std::int32_t>(i - sys.subtask_offset(k));
    ASSERT_TRUE(same_placement(p, dvq.schedule().placement({k, seq}))) << i;
  }
}

// A run that does not probe and stops at its horizon limit stores no
// seq eligible only past the limit: the simulators' run_until, and the
// cyclic drivers on a phased copy of the system, which cannot probe.
TEST(CycleStorage, UnprobedRunCutShortStoresOnlyUpToItsLimit) {
  const FixedYield yields(Time::slots_frac(0, 3, 4));
  const std::int64_t limit = 6 * kPool;
  SfqOptions sopts;
  sopts.horizon_limit = limit;
  DvqOptions dopts;
  dopts.horizon_limit = limit;
  std::string why;
  for (int seed = 0; seed < 24; ++seed) {
    const TaskSystem sys = make_cyclic_system(seed, 40);
    const std::string tag = "seed " + std::to_string(seed) + ": ";
    SfqSimulator sfq(sys);
    sfq.run_until(limit);
    EXPECT_LT(sfq.schedule().stored_cells(), sys.total_subtasks() / 4) << tag;
    EXPECT_TRUE(same_sfq(schedule_sfq_reference(sys, sopts), sfq.schedule(),
                         sys, &why))
        << tag << why;
    DvqSimulator dvq(sys, yields);
    dvq.run_until(Time::slots(limit));
    EXPECT_LT(dvq.schedule().stored_cells(), sys.total_subtasks() / 4) << tag;
    EXPECT_TRUE(same_dvq(schedule_dvq_reference(sys, yields, dopts),
                         dvq.schedule(), sys, &why))
        << tag << why;

    std::vector<Task> tasks;
    for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
      tasks.push_back(Task::periodic_phased(sys.task(k).name(),
                                            sys.task(k).weight(),
                                            k == 0 ? 1 : 0, 40 * kPool));
    }
    const TaskSystem phased(std::move(tasks), sys.processors());
    ASSERT_EQ(fingerprint_period(phased), 0) << tag;
    const CycleSchedule sc = schedule_sfq_cyclic(phased, sopts);
    EXPECT_FALSE(sc.stats().engaged) << tag;
    EXPECT_LT(sc.stored().stored_cells(), phased.total_subtasks() / 4) << tag;
    EXPECT_TRUE(same_sfq(schedule_sfq_reference(phased, sopts),
                         sc.materialize(), phased, &why))
        << tag << why;
    const DvqCycleSchedule dc = schedule_dvq_cyclic(phased, yields, dopts);
    EXPECT_FALSE(dc.stats().engaged) << tag;
    EXPECT_LT(dc.stored().stored_cells(), phased.total_subtasks() / 4) << tag;
    EXPECT_TRUE(same_dvq(schedule_dvq_reference(phased, yields, dopts),
                         dc.materialize(), phased, &why))
        << tag << why;
  }
}

// Every layout a store can take reads like a naive per-seq map through
// every accessor: find, seqs, num_subtasks, base, runs and walk.  The
// layouts: a long gap (several zero runs of the walk), a gap from seq 0,
// a gap to the end, a stored end short of the count with no gap, a gap
// and a short end, an ungapped task, a single-seq task (stored, and in a
// gap) and a zero-subtask task; then the whole store again.
struct NumberedCell {
  std::int64_t v;
  [[nodiscard]] std::int64_t value() const { return v; }
};
TEST(CycleStorage, WalkReadsALongGapAsUnplaced) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("long", Weight(1, 2), 600));  // 300 seqs
  for (const char* name : {"gap0", "gapend", "short", "mid", "whole"}) {
    tasks.push_back(Task::periodic(name, Weight(1, 2), 40));  // 20 seqs
  }
  tasks.push_back(Task::periodic("one", Weight(1, 40), 40));
  tasks.push_back(Task::periodic("one_gap", Weight(1, 40), 40));
  tasks.push_back(Task::intra_sporadic("none", Weight(1, 2), {}, 0));
  const TaskSystem sys(std::move(tasks), 1);
  ASSERT_EQ(sys.task(0).num_subtasks(), 300);
  ASSERT_EQ(sys.task(6).num_subtasks(), 1);
  ASSERT_EQ(sys.task(8).num_subtasks(), 0);
  const std::vector<StoredSeqs> layouts = {
      {10, 250, 300}, {0, 7, 20}, {5, 20, 20}, {0, 0, 12}, {3, 9, 16},
      {0, 0, 20},     {0, 0, 1},  {0, 1, 1},   {0, 0, 0}};

  CellStore<NumberedCell> store(sys, true);
  for (std::int64_t i = 0; i < store.size(); ++i) store.data()[i].v = i + 1;
  // Checks every accessor against `stored(k, s)`: a stored seq reads its
  // original number, an unstored one zero.
  const auto check = [&](const auto& stored, const std::string& tag) {
    std::int64_t cells = 0;
    for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
      const std::int64_t count = sys.task(k).num_subtasks();
      ASSERT_EQ(store.num_subtasks(k), count) << tag << k;
      const auto want = [&](std::int64_t s) {
        return stored(k, s) ? sys.subtask_offset(k) + s + 1 : 0;
      };
      for (std::int64_t s = 0; s < count; ++s) {
        const NumberedCell* c = store.find(k, s);
        ASSERT_EQ(c != nullptr, stored(k, s)) << tag << k << "/" << s;
        if (c == nullptr) continue;
        ++cells;
        EXPECT_EQ(c->v, want(s)) << tag << k << "/" << s;
        EXPECT_EQ(store.data() + (store.base(k, s) + s), c)
            << tag << k << "/" << s;
      }
      // Every range between two seqs at or next to a layout boundary.
      const StoredSeqs& g = layouts[static_cast<std::size_t>(k)];
      std::vector<std::int64_t> ends;
      for (const std::int64_t b : {std::int64_t{0}, g.gap_begin, g.gap_end,
                                   g.end, count}) {
        for (std::int64_t d = -1; d <= 1; ++d) {
          if (b + d >= 0 && b + d <= count) ends.push_back(b + d);
        }
      }
      for (const std::int64_t first : ends) {
        for (const std::int64_t last : ends) {
          if (last < first) continue;
          std::int64_t next = first;
          store.runs(k, first, last,
                     [&](std::int64_t lo, std::int64_t hi,
                         const NumberedCell* c) {
                       ASSERT_EQ(lo, next) << tag << k;
                       ASSERT_LT(lo, hi) << tag << k;
                       for (std::int64_t s = lo; s < hi; ++s) {
                         ASSERT_EQ(c != nullptr, stored(k, s)) << tag << k;
                         if (c != nullptr) {
                           EXPECT_EQ(c[s - lo].v, want(s)) << tag << k;
                         }
                       }
                       next = hi;
                     });
          EXPECT_EQ(next, last) << tag << k << " [" << first << ", " << last;
          next = first;
          store.walk(k, first, last, [&](std::int32_t s, std::int64_t v) {
            ASSERT_EQ(s, next++) << tag << k;
            EXPECT_EQ(v, want(s)) << tag << k << "/" << s;
          });
          EXPECT_EQ(next, last) << tag << k << " [" << first << ", " << last;
        }
      }
    }
    EXPECT_EQ(store.size(), cells) << tag;
  };

  ASSERT_TRUE(store.relayout(
      [&](std::size_t k, const StoredSeqs&) { return layouts[k]; },
      [](std::int64_t, std::int64_t, std::int64_t) {}));
  const auto in_layout = [&](std::int64_t k, std::int64_t s) {
    const StoredSeqs& g = layouts[static_cast<std::size_t>(k)];
    return s < g.end && (s < g.gap_begin || s >= g.gap_end);
  };
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    EXPECT_EQ(store.seqs(k), layouts[static_cast<std::size_t>(k)]) << k;
  }
  check(in_layout, "gapped: task ");

  // Storing every seq keeps each stored cell and zeroes the rest.
  store.store_all([](std::int64_t, std::int64_t, std::int64_t) {});
  EXPECT_EQ(store.size(), sys.total_subtasks());
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    EXPECT_EQ(store.seqs(k), (StoredSeqs{0, 0, sys.task(k).num_subtasks()}));
    for (std::int64_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      EXPECT_EQ(store.find(k, s)->v,
                in_layout(k, s) ? sys.subtask_offset(k) + s + 1 : 0)
          << k << "/" << s;
    }
  }
  for (std::int64_t i = 0; i < store.size(); ++i) store.data()[i].v = i + 1;
  check([](std::int64_t, std::int64_t) { return true; }, "full: task ");
}

}  // namespace
}  // namespace pfair
