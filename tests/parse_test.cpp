// Tests for the task-file parser behind the pfairsim CLI.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/tardiness.hpp"
#include "io/parse.hpp"
#include "sched/sfq_scheduler.hpp"

namespace pfair {
namespace {

TEST(Parse, MinimalFile) {
  const ParsedSystem p = parse_task_string(
      "processors 2\n"
      "task a 1/2\n"
      "task b 1/2\n");
  EXPECT_EQ(p.processors, 2);
  ASSERT_EQ(p.tasks.size(), 2u);
  EXPECT_EQ(p.tasks[0].name, "a");
  EXPECT_EQ(p.tasks[0].weight, Weight(1, 2));
  EXPECT_EQ(p.tasks[0].jobs, -1);
}

TEST(Parse, CommentsAndBlankLines) {
  const ParsedSystem p = parse_task_string(
      "# header comment\n"
      "\n"
      "processors 1   # trailing\n"
      "   task x 3/4  # also trailing\n");
  EXPECT_EQ(p.processors, 1);
  ASSERT_EQ(p.tasks.size(), 1u);
  EXPECT_EQ(p.tasks[0].weight, Weight(3, 4));
}

TEST(Parse, OptionsPhaseAndJobs) {
  const ParsedSystem p = parse_task_string(
      "processors 2\n"
      "horizon 30\n"
      "task a 1/3 phase=4\n"
      "task b 2/5 jobs=3 phase=1\n");
  EXPECT_EQ(p.horizon, 30);
  EXPECT_EQ(p.tasks[0].phase, 4);
  EXPECT_EQ(p.tasks[1].jobs, 3);
  EXPECT_EQ(p.tasks[1].phase, 1);
}

/// An input error's message is the line-numbered text alone: none of
/// PFAIR_REQUIRE's expression or source location leaks into it.
void expect_clean_message(const InputError& e) {
  const std::string what = e.what();
  EXPECT_EQ(what.find("failed: ("), std::string::npos) << what;
  EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
}

TEST(Parse, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      (void)parse_task_string(text);
      FAIL() << "expected failure for: " << text;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
      expect_clean_message(e);
    }
  };
  expect_error("processors 2\nbogus line\n", "line 2");
  expect_error("processors 2\ntask a 5/4\n", "outside");
  expect_error("processors 2\ntask a 1/2 color=red\n", "unknown option");
  expect_error("processors 2\ntask a one/2\n", "bad weight");
  expect_error("processors 0\ntask a 1/2\n", "processor count");
  expect_error("task a 1/2\n", "missing 'processors'");
  expect_error("processors 2\n", "no tasks");
}

/// Parses `text` (which must parse) and expects build() to throw an
/// InputError whose message contains every needle.
void expect_build_error(const std::string& text,
                        const std::vector<std::string>& needles) {
  const ParsedSystem p = parse_task_string(text);
  try {
    (void)p.build();
    FAIL() << "expected build failure for: " << text;
  } catch (const InputError& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    expect_clean_message(e);
  }
}

// A phase near 2^63 used to overflow max_phase + 2 * hyperperiod in the
// default horizon (signed overflow, then a "valid" run over no subtasks).
TEST(Parse, HugePhaseOverflowingTheHorizonIsRejected) {
  const std::string text =
      "processors 1\n"
      "task a 1/2\n"
      "task b 1/3 phase=9223372036854775807\n";
  expect_build_error(text, {"line 3", "phase 9223372036854775807"});
  EXPECT_THROW((void)parse_task_string(text).effective_horizon(),
               InputError);
  // A jobs= task is exempt from the default-horizon phase cap, so its
  // huge phase reaches the overflow check itself.
  expect_build_error(
      "processors 1\n"
      "task a 1/2\n"
      "task b 1/3 jobs=1 phase=9223372036854775807\n",
      {"line 3", "plus two hyperperiods overflows"});
  // A huge period no longer overflows the hyperperiod either: the
  // default horizon is capped.
  const ParsedSystem wide = parse_task_string(
      "processors 1\ntask a 1/3\ntask b 1/9223372036854775807\n");
  EXPECT_EQ(wide.effective_horizon(), 4096);
  // With an explicit horizon the phase only delays the task.
  const ParsedSystem late = parse_task_string(
      "processors 1\nhorizon 8\ntask a 1/2\n"
      "task b 1/3 phase=9223372036854775807\n");
  EXPECT_EQ(late.build().task(1).num_subtasks(), 0);
}

// A recurring task joining at or past the 4096-slot default-horizon cap
// used to build no subtasks, and pfairsim printed "validity: valid" over
// nothing.  Below the cap the horizon is unchanged; a horizon line or a
// jobs= count (whose subtasks exist past any horizon) still builds.
TEST(Parse, PhaseAtTheDefaultHorizonCapIsRejected) {
  expect_build_error("processors 2\ntask a 1/2 phase=4096\n",
                     {"line 2", "phase 4096", "'horizon' line"});
  const ParsedSystem below =
      parse_task_string("processors 2\ntask a 1/2 phase=4095\n");
  EXPECT_EQ(below.effective_horizon(), 4096);
  EXPECT_EQ(below.build().task(0).num_subtasks(), 1);
  EXPECT_EQ(parse_task_string("processors 2\nhorizon 4100\n"
                              "task a 1/2 phase=4096\n")
                .build()
                .task(0)
                .num_subtasks(),
            2);
  EXPECT_EQ(parse_task_string("processors 2\ntask a 1/2\n"
                              "task b 1/2 jobs=2 phase=5000\n")
                .build()
                .task(1)
                .num_subtasks(),
            2);
}

// A weight's reduced numerator sizes its window table; 2^62 - 1 used to
// abort the build with an uncaught std::length_error, and a mid-range one
// allocated gigabytes.  The refusal names the line and the weight.
TEST(Parse, HugeWeightNumeratorIsRejected) {
  expect_build_error(
      "processors 2\n"
      "task a 4611686018427387903/4611686018427387904\n"
      "task b 1/2\n",
      {"line 2", "weight 4611686018427387903/4611686018427387904",
       "window table"});
}

// jobs * e (the subtask count) and phase + jobs * p (the last deadline)
// are checked before the finite task is built.
TEST(Parse, JobCountOverflowIsRejected) {
  expect_build_error(
      "processors 1\n"
      "task a 1/2\n"
      "\n"
      "task b 3/4 jobs=4611686018427387904\n",
      {"line 4", "jobs=4611686018427387904", "overflows"});
  expect_build_error(
      "processors 1\n"
      "task b 1/4 jobs=3 phase=9223372036854775800\n",
      {"line 2", "overflows"});
  // In range, the same options still build.
  const TaskSystem ok =
      parse_task_string("processors 1\ntask b 3/4 jobs=2 phase=7\n").build();
  EXPECT_EQ(ok.task(0).num_subtasks(), 6);
}

// A finite task is a flyweight periodic task: building one costs O(1) in
// its job count (the subtasks are never materialized, or scheduled here).
TEST(Parse, HugeJobCountBuildsFlyweight) {
  const TaskSystem sys =
      parse_task_string("processors 1\ntask a 1/2 jobs=100000000\n").build();
  EXPECT_EQ(sys.task(0).num_subtasks(), 100000000);
  EXPECT_EQ(sys.task(0).subtask_at(99999999).deadline, 200000000);
}

// The flyweight has the subtask sequence the GIS construction of the
// same jobs (every index 1..jobs*e, offset = phase, eligible at release)
// had.
TEST(Parse, JobsMatchTheGisConstruction) {
  for (const Weight w : {Weight(1, 2), Weight(2, 5), Weight(3, 4),
                         Weight(5, 7), Weight(4, 6)}) {
    for (const std::int64_t phase : {0, 1, 5}) {
      for (const std::int64_t jobs : {1, 2, 5}) {
        const std::string line = "task a " + w.str() +
                                 " jobs=" + std::to_string(jobs) +
                                 " phase=" + std::to_string(phase);
        const TaskSystem sys =
            parse_task_string("processors 1\n" + line + "\n").build();
        std::vector<Task::SubtaskSpec> specs;
        for (std::int64_t i = 1; i <= jobs * w.e; ++i) {
          specs.push_back(Task::SubtaskSpec{i, phase, -1});
        }
        const Task gis = Task::gis("a", w, specs);
        const Task& fly = sys.task(0);
        ASSERT_EQ(fly.num_subtasks(), gis.num_subtasks()) << line;
        for (std::int64_t s = 0; s < gis.num_subtasks(); ++s) {
          const Subtask a = fly.subtask_at(s);
          const Subtask b = gis.subtask_at(s);
          EXPECT_EQ(a.index, b.index) << line << " seq " << s;
          EXPECT_EQ(a.release, b.release) << line << " seq " << s;
          EXPECT_EQ(a.deadline, b.deadline) << line << " seq " << s;
          EXPECT_EQ(a.eligible, b.eligible) << line << " seq " << s;
          EXPECT_EQ(a.bbit, b.bbit) << line << " seq " << s;
          EXPECT_EQ(a.group_deadline, b.group_deadline)
              << line << " seq " << s;
        }
      }
    }
  }
}

TEST(Parse, EffectiveHorizonIsTwoHyperperiods) {
  const ParsedSystem p = parse_task_string(
      "processors 1\n"
      "task a 1/4\n"
      "task b 1/6\n");
  EXPECT_EQ(p.effective_horizon(), 24);  // 2 * lcm(4,6)
}

TEST(Parse, BuildProducesSchedulableSystem) {
  const ParsedSystem p = parse_task_string(
      "processors 2\n"
      "task a 1/2\n"
      "task b 1/2\n"
      "task c 2/3 phase=3\n"
      "task d 1/6 jobs=2\n");
  const TaskSystem sys = p.build();
  EXPECT_EQ(sys.processors(), 2);
  EXPECT_EQ(sys.num_tasks(), 4);
  // Finite task d has exactly jobs * e subtasks.
  EXPECT_EQ(sys.task(3).num_subtasks(), 2);
  // Phased task c's first release is at its phase.
  EXPECT_EQ(sys.task(2).subtask(0).release, 3);
  const SlotSchedule sched = schedule_sfq(sys);
  ASSERT_TRUE(sched.complete());
  EXPECT_EQ(measure_tardiness(sys, sched).max_ticks, 0);
}

TEST(Parse, HorizonOverrideRespected) {
  const ParsedSystem p = parse_task_string(
      "processors 1\n"
      "horizon 8\n"
      "task a 1/2\n");
  const TaskSystem sys = p.build();
  EXPECT_EQ(sys.task(0).num_subtasks(), 4);  // releases 0,2,4,6 < 8
}

// A period past 2^43 slots used to overflow Time::slots inside the
// simulators (DVQ reported the subtask unscheduled, staggered PD2 a
// deadline miss); the build now reports the task's line instead.
TEST(Parse, HorizonPastTheTickRangeIsRejected) {
  expect_build_error("processors 1\ntask x 1/2\ntask a 1/9000000000000\n",
                     {"line 3", "task 'a'", "9000000000000"});
  const TaskSystem ok =
      parse_task_string("processors 1\ntask a 1/8796093022000\n").build();
  EXPECT_EQ(ok.max_deadline(), 8796093022000);
}

}  // namespace
}  // namespace pfair
