// Tests for the online invariant auditor and the counterexample
// capture/replay/shrink pipeline (obs/audit.hpp, obs/capture.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <string_view>

#include "dvq/dvq_scheduler.hpp"
#include "dvq/yield.hpp"
#include "io/json.hpp"
#include "io/trace_io.hpp"
#include "obs/audit.hpp"
#include "obs/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

// A fully utilized 3-processor system.  Under PD2 it is schedulable with
// zero tardiness; under the inverted tie-breaks of Policy::kBroken it
// misses deadlines and starves tasks past the lag bounds.
TaskSystem heavy_system(std::int64_t horizon = 24) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("a", Weight(7, 8), horizon));
  tasks.push_back(Task::periodic("b", Weight(7, 8), horizon));
  tasks.push_back(Task::periodic("c", Weight(3, 4), horizon));
  tasks.push_back(Task::periodic("d", Weight(1, 2), horizon));
  return TaskSystem(std::move(tasks), 3);
}

TEST(InvariantAuditor, CleanOnGoodPd2SfqRun) {
  const TaskSystem sys = heavy_system();
  InvariantAuditor auditor(sys);
  SfqOptions opts;
  opts.trace = &auditor;
  (void)schedule_sfq(sys, opts);
  EXPECT_TRUE(auditor.clean()) << auditor.findings().front().str();
  EXPECT_EQ(auditor.total_findings(), 0);
  EXPECT_STREQ(auditor.model(), "sfq");
}

TEST(InvariantAuditor, CleanOnGoodPd2DvqRun) {
  const TaskSystem sys = heavy_system();
  const BernoulliYield yields(7, 1, 2, Time::ticks(kTicksPerSlot / 2),
                              kQuantum - kTick);
  InvariantAuditor auditor(sys);
  DvqOptions opts;
  opts.trace = &auditor;
  (void)schedule_dvq(sys, yields, opts);
  EXPECT_TRUE(auditor.clean()) << auditor.findings().front().str();
  EXPECT_STREQ(auditor.model(), "dvq");
}

TEST(InvariantAuditor, BrokenPolicyViolatesInvariants) {
  const TaskSystem sys = heavy_system();
  InvariantAuditor auditor(sys);
  MetricsRegistry reg;
  auditor.attach_metrics(reg);
  SfqOptions opts;
  opts.policy = Policy::kBroken;
  opts.trace = &auditor;
  (void)schedule_sfq(sys, opts);

  EXPECT_FALSE(auditor.clean());
  EXPECT_GT(auditor.total_findings(), 0);
  ASSERT_FALSE(auditor.findings().empty());
  // The metric counters agree with the stored total.
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or(audit_metrics::kFindings),
            auditor.total_findings());
  // The broken policy starves the light task: expect at least one lag
  // or deadline finding.
  const bool has_expected_kind = std::any_of(
      auditor.findings().begin(), auditor.findings().end(),
      [](const AuditFinding& f) {
        return f.kind == Violation::Kind::kLagBound ||
               f.kind == Violation::Kind::kDeadlineMiss;
      });
  EXPECT_TRUE(has_expected_kind);
}

TEST(InvariantAuditor, ForwardsFindingEventsDownstream) {
  const TaskSystem sys = heavy_system();
  RingBufferSink downstream(1 << 10);
  InvariantAuditor auditor(sys);
  auditor.set_downstream(&downstream);
  SfqOptions opts;
  opts.policy = Policy::kBroken;
  opts.trace = &auditor;
  (void)schedule_sfq(sys, opts);

  ASSERT_FALSE(auditor.clean());
  std::int64_t forwarded = 0;
  for (const TraceEvent& e : downstream.snapshot()) {
    if (e.kind == TraceEventKind::kAuditFinding) ++forwarded;
  }
  EXPECT_EQ(forwarded, auditor.total_findings());
}

TEST(InvariantAuditor, TardinessAllowanceIsOneQuantumUnderDvq) {
  // A DVQ stream reporting tardiness of exactly one quantum is within
  // Theorem 3's allowance; one tick past it is a finding.
  const TaskSystem sys = heavy_system();
  InvariantAuditor auditor(sys);
  TraceEvent begin;
  begin.kind = TraceEventKind::kEventBegin;
  begin.at = Time();
  auditor.on_event(begin);

  TraceEvent miss;
  miss.kind = TraceEventKind::kDeadlineMiss;
  miss.subject = SubtaskRef{0, 0};
  miss.at = Time::slots(8);
  miss.detail = kQuantum.raw_ticks();
  auditor.on_event(miss);
  EXPECT_TRUE(auditor.clean());

  miss.detail = kQuantum.raw_ticks() + 1;
  auditor.on_event(miss);
  EXPECT_EQ(auditor.total_findings(), 1);
  EXPECT_EQ(auditor.findings().front().kind, Violation::Kind::kDeadlineMiss);
}

// Lag::kAuto turns the lag checks on only when every task is synchronous
// periodic and eligible at release throughout.  An SFQ stream that never
// serves the task under-serves it past lag 1 by slot 2, so it must raise
// kLagBound exactly when the checks are on.
std::int64_t lag_findings_when_starved(Task task) {
  std::vector<Task> tasks;
  tasks.push_back(std::move(task));
  const TaskSystem sys(std::move(tasks), 1);
  InvariantAuditor auditor(sys);
  TraceEvent slot;
  slot.kind = TraceEventKind::kSlotBegin;
  for (std::int64_t t = 0; t < 6; ++t) {
    slot.at = Time::slots(t);
    auditor.on_event(slot);
  }
  return std::count_if(
      auditor.findings().begin(), auditor.findings().end(),
      [](const AuditFinding& f) { return f.kind == Violation::Kind::kLagBound; });
}

TEST(InvariantAuditor, AutoLagIsOnOnlyForSynchronousPeriodicTasks) {
  const Weight w(2, 3);  // e = 2: early release moves T_2 off its release
  // On: flyweight and materialized synchronous periodic tasks.
  EXPECT_GT(lag_findings_when_starved(Task::periodic("a", w, 12)), 0);
  EXPECT_GT(
      lag_findings_when_starved(Task::periodic_phased_eager("a", w, 0, 12)),
      0);
  // Early release moves no eligibility when e = 1, so the checks stay on.
  EXPECT_GT(lag_findings_when_starved(
                Task::periodic("a", Weight(1, 3), 12).with_early_release()),
            0);
  // Off: a phase, early release (flyweight flag or materialized
  // eligibility), an IS task.
  EXPECT_EQ(lag_findings_when_starved(Task::periodic_phased("a", w, 1, 12)),
            0);
  EXPECT_EQ(lag_findings_when_starved(
                Task::periodic("a", w, 12).with_early_release()),
            0);
  EXPECT_EQ(lag_findings_when_starved(
                Task::periodic_phased_eager("a", w, 0, 12).with_early_release()),
            0);
  EXPECT_EQ(lag_findings_when_starved(Task::intra_sporadic("a", w, {0}, 8)),
            0);
}

// The full pipeline: broken run -> finding -> captured bundle ->
// round-trip through JSON -> replay reproduces -> shrink stays minimal.
TEST(Capture, BrokenRunIsCapturedShrunkAndReplayable) {
  const TaskSystem sys = heavy_system();
  InvariantAuditor auditor(sys);
  CounterexampleRecorder recorder(
      CaptureBundle::prototype(sys, "sfq", Policy::kBroken));
  auditor.set_finding_callback(
      [&recorder](const AuditFinding& f) { recorder.record(f); });
  // Recorder first, so the triggering event is already in its ring when
  // the auditor's callback fires.
  TeeSink tee(&recorder, &auditor);
  SfqOptions opts;
  opts.policy = Policy::kBroken;
  opts.trace = &tee;
  (void)schedule_sfq(sys, opts);

  ASSERT_FALSE(auditor.clean());
  ASSERT_TRUE(recorder.captured());
  const CaptureBundle& bundle = recorder.bundle();
  EXPECT_EQ(bundle.finding.kind, auditor.findings().front().kind);
  EXPECT_FALSE(bundle.trace_prefix.empty());

  // JSON round-trip preserves the bundle.
  const std::string json = capture_to_json(bundle);
  const CaptureBundle back = capture_from_json(json);
  EXPECT_EQ(back.model, bundle.model);
  EXPECT_EQ(back.policy, bundle.policy);
  EXPECT_EQ(back.processors, bundle.processors);
  EXPECT_EQ(back.finding.kind, bundle.finding.kind);
  ASSERT_EQ(back.tasks.size(), bundle.tasks.size());
  for (std::size_t i = 0; i < back.tasks.size(); ++i) {
    EXPECT_EQ(back.tasks[i].name, bundle.tasks[i].name);
    EXPECT_EQ(back.tasks[i].we, bundle.tasks[i].we);
    EXPECT_EQ(back.tasks[i].wp, bundle.tasks[i].wp);
    EXPECT_EQ(back.tasks[i].subtasks.size(), bundle.tasks[i].subtasks.size());
  }
  EXPECT_EQ(back.trace_prefix.size(), bundle.trace_prefix.size());

  // Replay through the independent reference-simulator path reproduces
  // the same kind of violation.
  const ReplayResult replay = replay_bundle(back);
  EXPECT_TRUE(replay.reproduced);

  // Shrinking keeps it reproducing; the fully utilized 3-processor
  // system needs all 4 tasks, so the shrinker may not drop below that.
  const CaptureBundle shrunk = shrink_bundle(back);
  EXPECT_LE(shrunk.tasks.size(), 4u);
  EXPECT_GE(shrunk.tasks.size(), 1u);
  EXPECT_LE(shrunk.horizon_limit == 0 ? 24 : shrunk.horizon_limit, 24);
  const ReplayResult again = replay_bundle(shrunk);
  EXPECT_TRUE(again.reproduced);
  EXPECT_EQ(shrunk.finding.kind, back.finding.kind);

  // Shrinking is deterministic.
  const CaptureBundle shrunk2 = shrink_bundle(back);
  EXPECT_EQ(capture_to_json(shrunk), capture_to_json(shrunk2));
}

TEST(Capture, PrototypeRebuildsTheExactSystem) {
  const TaskSystem sys = heavy_system();
  const CaptureBundle proto =
      CaptureBundle::prototype(sys, "sfq", Policy::kPd2);
  const TaskSystem back = proto.build_system();
  ASSERT_EQ(back.num_tasks(), sys.num_tasks());
  EXPECT_EQ(back.processors(), sys.processors());
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& a = sys.task(k);
    const Task& b = back.task(k);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.weight().e, b.weight().e);
    EXPECT_EQ(a.weight().p, b.weight().p);
    ASSERT_EQ(a.num_subtasks(), b.num_subtasks());
    for (std::int64_t s = 0; s < a.num_subtasks(); ++s) {
      const Subtask sa = a.subtask_at(s);
      const Subtask sb = b.subtask_at(s);
      EXPECT_EQ(sa.index, sb.index);
      EXPECT_EQ(sa.release, sb.release);
      EXPECT_EQ(sa.deadline, sb.deadline);
      EXPECT_EQ(sa.eligible, sb.eligible);
      EXPECT_EQ(sa.bbit, sb.bbit);
      EXPECT_EQ(sa.group_deadline, sb.group_deadline);
    }
  }
}

TEST(Capture, CleanBundleDoesNotReproduce) {
  // A prototype with no finding recorded replays clean under PD2.
  const TaskSystem sys = heavy_system();
  CaptureBundle b = CaptureBundle::prototype(sys, "sfq", Policy::kPd2);
  b.finding.kind = Violation::Kind::kLagBound;  // claim something false
  const ReplayResult replay = replay_bundle(b);
  EXPECT_FALSE(replay.reproduced);
  EXPECT_TRUE(replay.findings.empty());
  // shrink_bundle returns a non-reproducing bundle unchanged.
  const CaptureBundle shrunk = shrink_bundle(b);
  EXPECT_EQ(shrunk.tasks.size(), b.tasks.size());
}

TEST(Capture, DvqBrokenRunCapturesWithYieldSpec) {
  // The broken tie-breaks stay within Theorem 3's one-quantum allowance
  // under DVQ (it only inverts tie-breaks, it does not unbound
  // tardiness), so audit with a strict zero allowance: the one-quantum
  // misses it provokes become findings, and the allowance travels with
  // the bundle so replay applies the same rules.
  const TaskSystem sys = heavy_system();
  const FullQuantumYield yields;
  CaptureBundle proto =
      CaptureBundle::prototype(sys, "dvq", Policy::kBroken);
  proto.yields.kind = "full";
  proto.allowance_ticks = 0;
  AuditOptions aopts;
  aopts.tardiness_allowance = Time();
  InvariantAuditor auditor(sys, aopts);
  CounterexampleRecorder recorder(std::move(proto));
  auditor.set_finding_callback(
      [&recorder](const AuditFinding& f) { recorder.record(f); });
  TeeSink tee(&recorder, &auditor);
  DvqOptions opts;
  opts.policy = Policy::kBroken;
  opts.trace = &tee;
  (void)schedule_dvq(sys, yields, opts);

  ASSERT_FALSE(auditor.clean());
  ASSERT_TRUE(recorder.captured());
  const CaptureBundle round =
      capture_from_json(capture_to_json(recorder.bundle()));
  EXPECT_EQ(round.model, "dvq");
  EXPECT_EQ(round.yields.kind, "full");
  ASSERT_TRUE(round.allowance_ticks.has_value());
  EXPECT_EQ(*round.allowance_ticks, 0);
  const ReplayResult replay = replay_bundle(round);
  EXPECT_TRUE(replay.reproduced);
}

TEST(TraceIo, EventJsonRoundTripsOverFullRun) {
  const TaskSystem sys = heavy_system();
  std::ostringstream os;
  JsonlSink sink(os);
  SfqOptions opts;
  opts.trace = &sink;
  (void)schedule_sfq(sys, opts);

  std::istringstream in(os.str());
  const std::vector<TraceEvent> events = read_trace_jsonl(in);
  EXPECT_EQ(events.size(), sink.lines());
  for (const TraceEvent& e : events) {
    // Serializing the parsed event reproduces the original line shape.
    const TraceEvent back = trace_event_from_json(
        parse_json(trace_event_json(e)));
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_EQ(back.at.raw_ticks(), e.at.raw_ticks());
    EXPECT_EQ(back.subject.task, e.subject.task);
    EXPECT_EQ(back.subject.seq, e.subject.seq);
    EXPECT_EQ(back.detail, e.detail);
    EXPECT_EQ(back.proc, e.proc);
    EXPECT_EQ(back.aux, e.aux);
  }
}

TEST(TraceIo, ReplayedTraceDrivesTheAuditor) {
  // A JSONL trace written by the simulator, read back and fed to a
  // fresh auditor, yields the same verdict as the inline one.
  const TaskSystem sys = heavy_system();
  std::ostringstream os;
  JsonlSink sink(os);
  InvariantAuditor inline_audit(sys);
  TeeSink tee(&sink, &inline_audit);
  SfqOptions opts;
  opts.policy = Policy::kBroken;
  opts.trace = &tee;
  (void)schedule_sfq(sys, opts);

  std::istringstream in(os.str());
  InvariantAuditor offline_audit(sys);
  for (const TraceEvent& e : read_trace_jsonl(in)) {
    offline_audit.on_event(e);
  }
  EXPECT_EQ(offline_audit.total_findings(), inline_audit.total_findings());
  ASSERT_FALSE(offline_audit.clean());
  EXPECT_EQ(offline_audit.findings().front().kind,
            inline_audit.findings().front().kind);
}

TEST(InvariantAuditor, CleanAcrossAllPaperFigures) {
  for (const std::string_view name : {"fig1a", "fig1b", "fig1c", "fig2",
                                      "fig3", "fig6"}) {
    const auto sc = figure_scenario_by_name(name);
    ASSERT_TRUE(sc.has_value()) << name;
    {
      InvariantAuditor auditor(sc->system);
      SfqOptions opts;
      opts.trace = &auditor;
      (void)schedule_sfq(sc->system, opts);
      EXPECT_TRUE(auditor.clean())
          << name << " sfq: " << auditor.findings().front().str();
    }
    {
      InvariantAuditor auditor(sc->system);
      DvqOptions opts;
      opts.trace = &auditor;
      if (sc->yields != nullptr) {
        (void)schedule_dvq(sc->system, *sc->yields, opts);
      } else {
        const FullQuantumYield full;
        (void)schedule_dvq(sc->system, full, opts);
      }
      EXPECT_TRUE(auditor.clean())
          << name << " dvq: " << auditor.findings().front().str();
    }
  }
}

}  // namespace
}  // namespace pfair
