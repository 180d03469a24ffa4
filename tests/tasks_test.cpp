// Unit and property tests for src/tasks: window arithmetic (Eqs. (2)-(6)),
// b-bits, group deadlines, task builders, task systems.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tasks/group_deadline.hpp"
#include "tasks/task.hpp"
#include "tasks/task_system.hpp"
#include "tasks/weight.hpp"
#include "tasks/windows.hpp"

namespace pfair {
namespace {

// ------------------------------------------------------------------- weight

TEST(Weight, Validation) {
  EXPECT_NO_THROW(Weight(1, 1));
  EXPECT_NO_THROW(Weight(3, 4));
  EXPECT_THROW(Weight(0, 4), ContractViolation);
  EXPECT_THROW(Weight(5, 4), ContractViolation);
  EXPECT_THROW(Weight(1, 0), ContractViolation);
}

TEST(Weight, Classes) {
  EXPECT_TRUE(Weight(1, 2).heavy());
  EXPECT_TRUE(Weight(3, 4).heavy());
  EXPECT_TRUE(Weight(1, 3).light());
  EXPECT_TRUE(Weight(1, 1).unit());
  EXPECT_FALSE(Weight(3, 4).unit());
}

TEST(Weight, RateEquality) {
  EXPECT_EQ(Weight(1, 2), Weight(2, 4));
  EXPECT_EQ(Weight(2, 4).value(), Rational(1, 2));
}

// ---------------------------------------------------------- window formulas

TEST(Windows, PaperFig1aWeightThreeQuarters) {
  // Fig. 1(a): subtask windows of weight 3/4 are [0,2), [1,3), [2,4),
  // repeating each period.
  const Weight w(3, 4);
  EXPECT_EQ(pseudo_release(w, 1), 0);
  EXPECT_EQ(pseudo_deadline(w, 1), 2);
  EXPECT_EQ(pseudo_release(w, 2), 1);
  EXPECT_EQ(pseudo_deadline(w, 2), 3);
  EXPECT_EQ(pseudo_release(w, 3), 2);
  EXPECT_EQ(pseudo_deadline(w, 3), 4);
  // Next job repeats shifted by the period.
  EXPECT_EQ(pseudo_release(w, 4), 4);
  EXPECT_EQ(pseudo_deadline(w, 4), 6);
}

TEST(Windows, UnitWeight) {
  const Weight w(1, 1);
  for (std::int64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(pseudo_release(w, i), i - 1);
    EXPECT_EQ(pseudo_deadline(w, i), i);
    EXPECT_FALSE(b_bit(w, i));
  }
}

TEST(Windows, IndexMustBePositive) {
  EXPECT_THROW((void)pseudo_release(Weight(1, 2), 0), ContractViolation);
  EXPECT_THROW((void)pseudo_deadline(Weight(1, 2), -1), ContractViolation);
  EXPECT_THROW((void)b_bit(Weight(1, 2), 0), ContractViolation);
}

TEST(Windows, BBitDefinition) {
  // b(T_i) = 1 iff d(T_i) > r(T_{i+1}).
  for (const auto& [e, p] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {3, 4}, {1, 2}, {2, 5}, {8, 11}, {1, 6}, {7, 9}}) {
    const Weight w(e, p);
    for (std::int64_t i = 1; i <= 3 * p; ++i) {
      EXPECT_EQ(b_bit(w, i), pseudo_deadline(w, i) > pseudo_release(w, i + 1))
          << "wt=" << w.str() << " i=" << i;
    }
  }
}

TEST(Windows, SubtasksBefore) {
  EXPECT_EQ(subtasks_before(Weight(3, 4), 4), 3);
  EXPECT_EQ(subtasks_before(Weight(3, 4), 5), 4);
  EXPECT_EQ(subtasks_before(Weight(1, 2), 6), 3);
  EXPECT_EQ(subtasks_before(Weight(1, 6), 6), 1);
  EXPECT_EQ(subtasks_before(Weight(1, 1), 7), 7);
  EXPECT_EQ(subtasks_before(Weight(1, 2), 0), 0);
}

TEST(Windows, SubtasksBeforeMatchesDefinition) {
  for (const auto& [e, p] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {3, 4}, {1, 2}, {2, 5}, {8, 11}, {5, 7}}) {
    const Weight w(e, p);
    for (std::int64_t h = 0; h <= 3 * p; ++h) {
      std::int64_t count = 0;
      for (std::int64_t i = 1; pseudo_release(w, i) < h; ++i) ++count;
      EXPECT_EQ(subtasks_before(w, h), count)
          << "wt=" << w.str() << " horizon=" << h;
    }
  }
}

// Property sweep over a grid of weights.
class WindowProperties
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {
};

TEST_P(WindowProperties, StructuralInvariants) {
  const auto [e, p] = GetParam();
  const Weight w(e, p);
  const std::int64_t len_lo = Rational(p, e).ceil();
  std::int64_t last_r = -1;
  for (std::int64_t i = 1; i <= 4 * p; ++i) {
    const std::int64_t r = pseudo_release(w, i);
    const std::int64_t d = pseudo_deadline(w, i);
    // Windows are nonempty and releases nondecreasing.
    ASSERT_LT(r, d);
    ASSERT_GE(r, last_r);
    last_r = r;
    // Window length is ceil(1/wt) or ceil(1/wt)+1.
    const std::int64_t len = d - r;
    ASSERT_TRUE(len == len_lo || len == len_lo + 1)
        << "wt=" << w.str() << " i=" << i << " len=" << len;
    // Consecutive windows overlap by at most one slot.
    ASSERT_GE(pseudo_release(w, i + 1), d - 1);
    // Periodicity: window i+e is window i shifted by p.
    ASSERT_EQ(pseudo_release(w, i + e), r + p);
    ASSERT_EQ(pseudo_deadline(w, i + e), d + p);
    ASSERT_EQ(b_bit(w, i + e), b_bit(w, i));
  }
  // Exactly e subtasks per period.
  ASSERT_EQ(subtasks_before(w, p), e);
}

INSTANTIATE_TEST_SUITE_P(
    WeightGrid, WindowProperties,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{1, 2},
                      std::pair<std::int64_t, std::int64_t>{1, 7},
                      std::pair<std::int64_t, std::int64_t>{2, 3},
                      std::pair<std::int64_t, std::int64_t>{3, 4},
                      std::pair<std::int64_t, std::int64_t>{5, 8},
                      std::pair<std::int64_t, std::int64_t>{8, 11},
                      std::pair<std::int64_t, std::int64_t>{7, 15},
                      std::pair<std::int64_t, std::int64_t>{11, 12},
                      std::pair<std::int64_t, std::int64_t>{1, 1},
                      std::pair<std::int64_t, std::int64_t>{13, 24}));

// ------------------------------------------------------------ group deadline

TEST(GroupDeadline, LightTasksHaveNone) {
  EXPECT_EQ(group_deadline(Weight(1, 3), 1), 0);
  EXPECT_EQ(group_deadline(Weight(2, 5), 7), 0);
}

TEST(GroupDeadline, UnitWeight) {
  EXPECT_EQ(group_deadline(Weight(1, 1), 3), 3);
}

TEST(GroupDeadline, WeightOneHalf) {
  // b = 0 everywhere, so each cascade is a single window: D(T_i) = d(T_i).
  const Weight w(1, 2);
  for (std::int64_t i = 1; i <= 6; ++i) {
    EXPECT_EQ(group_deadline(w, i), pseudo_deadline(w, i));
  }
}

TEST(GroupDeadline, WeightThreeQuarters) {
  // Cascade T_1 -> T_2 -> T_3 ends at d(T_3) = 4 (b(T_3) = 0); next
  // cascade ends at 8.
  const Weight w(3, 4);
  EXPECT_EQ(group_deadline(w, 1), 4);
  EXPECT_EQ(group_deadline(w, 2), 4);
  EXPECT_EQ(group_deadline(w, 3), 4);
  EXPECT_EQ(group_deadline(w, 4), 8);
  EXPECT_EQ(group_deadline(w, 5), 8);
  EXPECT_EQ(group_deadline(w, 6), 8);
}

TEST(GroupDeadline, WeightEightElevenths) {
  // w(T_3) = [2, 5) has length 3, which absorbs the cascade from T_1/T_2:
  // D(T_1) = D(T_2) = d(T_2) = 3.
  const Weight w(8, 11);
  EXPECT_EQ(pseudo_deadline(w, 2), 3);
  EXPECT_EQ(window_length(w, 3), 3);
  EXPECT_EQ(group_deadline(w, 1), 3);
  EXPECT_EQ(group_deadline(w, 2), 3);
  // T_3 itself starts a new cascade.
  EXPECT_GT(group_deadline(w, 3), 3);
}

class GroupDeadlineProperties
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {
};

TEST_P(GroupDeadlineProperties, StructuralInvariants) {
  const auto [e, p] = GetParam();
  const Weight w(e, p);
  ASSERT_TRUE(w.heavy());
  for (std::int64_t i = 1; i <= 3 * p; ++i) {
    const std::int64_t gd = group_deadline(w, i);
    // D >= d, nondecreasing in i, periodic with the task.
    ASSERT_GE(gd, pseudo_deadline(w, i)) << "wt=" << w.str() << " i=" << i;
    ASSERT_LE(gd, group_deadline(w, i + 1));
    ASSERT_EQ(group_deadline(w, i + e), gd + p);
    // Within a cascade (b = 1, next window length 2) the group deadline is
    // shared with the successor.
    if (b_bit(w, i) && window_length(w, i + 1) == 2) {
      ASSERT_EQ(group_deadline(w, i + 1), gd);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    HeavyWeights, GroupDeadlineProperties,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{1, 2},
                      std::pair<std::int64_t, std::int64_t>{2, 3},
                      std::pair<std::int64_t, std::int64_t>{3, 4},
                      std::pair<std::int64_t, std::int64_t>{5, 8},
                      std::pair<std::int64_t, std::int64_t>{8, 11},
                      std::pair<std::int64_t, std::int64_t>{7, 12},
                      std::pair<std::int64_t, std::int64_t>{11, 16},
                      std::pair<std::int64_t, std::int64_t>{23, 24}));

// ------------------------------------------------------------ task builders

TEST(Task, PeriodicMaterialization) {
  const Task t = Task::periodic("T", Weight(3, 4), 8);
  EXPECT_EQ(t.kind(), TaskKind::kPeriodic);
  EXPECT_EQ(t.num_subtasks(), 6);  // releases 0,1,2,4,5,6 < 8
  EXPECT_EQ(t.subtask(0).release, 0);
  EXPECT_EQ(t.subtask(0).eligible, 0);
  EXPECT_EQ(t.subtask(5).release, 6);
  EXPECT_EQ(t.subtask(5).deadline, 8);
  EXPECT_EQ(t.max_deadline(), 8);
}

TEST(Task, PeriodicPhased) {
  const Task t = Task::periodic_phased("T", Weight(1, 2), 3, 9);
  EXPECT_EQ(t.kind(), TaskKind::kSporadic);
  ASSERT_EQ(t.num_subtasks(), 3);  // releases 3, 5, 7
  EXPECT_EQ(t.subtask(0).release, 3);
  EXPECT_EQ(t.subtask(0).deadline, 5);
  EXPECT_EQ(t.subtask(2).release, 7);
}

TEST(Task, IntraSporadicOffsets) {
  // Fig. 1(b): weight 3/4 with T_3 released one slot late.
  const Task t = Task::intra_sporadic("T", Weight(3, 4), {0, 0, 1}, 3);
  EXPECT_EQ(t.subtask(0).release, 0);
  EXPECT_EQ(t.subtask(1).release, 1);
  EXPECT_EQ(t.subtask(2).release, 3);
  EXPECT_EQ(t.subtask(2).deadline, 5);
}

TEST(Task, IntraSporadicLastOffsetPersists) {
  const Task t = Task::intra_sporadic("T", Weight(1, 2), {0, 2}, 4);
  EXPECT_EQ(t.subtask(2).theta, 2);
  EXPECT_EQ(t.subtask(3).theta, 2);
}

TEST(Task, DecreasingOffsetsRejected) {
  EXPECT_THROW(
      (void)Task::intra_sporadic("T", Weight(1, 2), {2, 1}, 2),
      ContractViolation);
}

TEST(Task, GisSkipsIndices) {
  // Fig. 1(c): T_2 absent, T_3 one slot late.
  const Task t = Task::gis("T", Weight(3, 4),
                           {Task::SubtaskSpec{1, 0, -1},
                            Task::SubtaskSpec{3, 1, -1}});
  ASSERT_EQ(t.num_subtasks(), 2);
  EXPECT_EQ(t.subtask(0).index, 1);
  EXPECT_EQ(t.subtask(1).index, 3);
  EXPECT_EQ(t.subtask(1).release, 3);
  EXPECT_EQ(t.subtask(1).deadline, 5);
}

TEST(Task, GisRejectsNonIncreasingIndices) {
  EXPECT_THROW((void)Task::gis("T", Weight(1, 2),
                               {Task::SubtaskSpec{2, 0, -1},
                                Task::SubtaskSpec{2, 0, -1}}),
               ContractViolation);
}

TEST(Task, EligibilityAboveReleaseRejected) {
  EXPECT_THROW(
      (void)Task::gis("T", Weight(1, 2), {Task::SubtaskSpec{1, 0, 1}}),
      ContractViolation);
}

TEST(Task, EarlyReleaseMakesJobSubtasksEligibleAtJobRelease) {
  const Task t = Task::periodic("T", Weight(3, 4), 8).with_early_release();
  // Job 1 = subtasks 1..3 released 0,1,2; all eligible at 0.
  EXPECT_EQ(t.subtask(0).eligible, 0);
  EXPECT_EQ(t.subtask(1).eligible, 0);
  EXPECT_EQ(t.subtask(2).eligible, 0);
  // Job 2 = subtasks 4..6; eligible at the job release, 4.
  EXPECT_EQ(t.subtask(3).eligible, 4);
  EXPECT_EQ(t.subtask(4).eligible, 4);
  EXPECT_EQ(t.subtask(5).eligible, 4);
  // Releases and deadlines are untouched.
  EXPECT_EQ(t.subtask(1).release, 1);
  EXPECT_EQ(t.subtask(1).deadline, 3);
}

TEST(Task, SubtaskBBitAndGroupDeadlinePopulated) {
  const Task t = Task::periodic("T", Weight(3, 4), 8);
  EXPECT_TRUE(t.subtask(0).bbit);
  EXPECT_TRUE(t.subtask(1).bbit);
  EXPECT_FALSE(t.subtask(2).bbit);
  EXPECT_EQ(t.subtask(0).group_deadline, 4);
  EXPECT_EQ(t.subtask(3).group_deadline, 8);
}

TEST(Task, OffsetShiftsGroupDeadline) {
  const Task t = Task::intra_sporadic("T", Weight(3, 4), {2}, 3);
  EXPECT_EQ(t.subtask(0).group_deadline, 6);  // 2 + 4
}

// -------------------------------------------------------------- task system

TEST(TaskSystem, UtilizationAndFeasibility) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 6));
  tasks.push_back(Task::periodic("B", Weight(1, 2), 6));
  tasks.push_back(Task::periodic("C", Weight(2, 3), 6));
  TaskSystem sys(std::move(tasks), 2);
  EXPECT_EQ(sys.total_utilization(), Rational(5, 3));
  EXPECT_TRUE(sys.feasible());
  EXPECT_EQ(sys.max_deadline(), 6);
  EXPECT_EQ(sys.total_subtasks(), 3 + 3 + 4);
}

TEST(TaskSystem, InfeasibleWhenOverM) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 1), 4));
  tasks.push_back(Task::periodic("B", Weight(1, 1), 4));
  tasks.push_back(Task::periodic("C", Weight(1, 4), 4));
  TaskSystem sys(std::move(tasks), 2);
  EXPECT_FALSE(sys.feasible());
}

TEST(TaskSystem, SubtaskLookupAndBounds) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 4));
  TaskSystem sys(std::move(tasks), 1);
  EXPECT_EQ(sys.subtask(SubtaskRef{0, 1}).release, 2);
  EXPECT_THROW((void)sys.task(1), ContractViolation);
  EXPECT_THROW((void)sys.subtask(SubtaskRef{0, 9}), ContractViolation);
}

TEST(TaskSystem, RequiresAProcessor) {
  EXPECT_THROW(TaskSystem({}, 0), ContractViolation);
}

TEST(TaskSystem, EarlyReleaseTransform) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(2, 4), 8));
  const TaskSystem sys(std::move(tasks), 1);
  const TaskSystem er = sys.with_early_release();
  EXPECT_EQ(er.task(0).subtask(1).eligible, 0);
  EXPECT_EQ(sys.task(0).subtask(1).eligible,
            sys.task(0).subtask(1).release);
}

// Time::slots(s) multiplies by 2^20, so a default horizon (latest
// deadline + subtask count + 16) past 2^43 slots cannot be simulated; the
// system is rejected when it is built, naming the task with the latest
// deadline.  Just below the limit it builds, and an empty task
// contributes no deadline however late its phase.
TEST(TaskSystem, HorizonPastTheTickRangeIsRejected) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("small", Weight(1, 2), 8));
  tasks.push_back(Task::periodic("a", Weight(1, 9000000000000), 1));
  try {
    const TaskSystem sys(tasks, 1);
    FAIL() << "expected a ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("task 'a'"), std::string::npos)
        << e.what();
  }

  std::vector<Task> fits;
  fits.push_back(Task::periodic("a", Weight(1, 8796093022000), 1));
  fits.push_back(Task::periodic_phased("late", Weight(1, 3), INT64_MAX,
                                       INT64_MAX));
  const TaskSystem sys(std::move(fits), 1);
  EXPECT_EQ(sys.task(1).num_subtasks(), 0);
  EXPECT_EQ(sys.max_deadline(), 8796093022000);
  EXPECT_EQ(default_horizon(sys), 8796093022000 + 1 + 16);
}

}  // namespace
}  // namespace pfair
