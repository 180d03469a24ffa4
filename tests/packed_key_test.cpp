// Packed priority keys must mirror the rule-by-rule comparator exactly:
//   policy_key(a) <=> policy_key(b)  iff  PriorityOrder::compare(a, b)
//   order_key(a)  <  order_key(b)   iff  PriorityOrder::higher(a, b)
// checked exhaustively over every subtask pair of the paper's running
// examples (Table 1 / Figs. 1-7) and a generated workload.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/packed_key.hpp"
#include "sched/priority.hpp"
#include "workload/generator.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

std::vector<SubtaskRef> all_refs(const TaskSystem& sys) {
  std::vector<SubtaskRef> out;
  out.reserve(static_cast<std::size_t>(sys.total_subtasks()));
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      out.push_back(SubtaskRef{k, s});
    }
  }
  return out;
}

void expect_keys_mirror_compare(const TaskSystem& sys, Policy policy,
                                const std::string& label) {
  SCOPED_TRACE(label);
  const PriorityOrder order(sys, policy);
  const PackedKeys keys(sys, policy);
  if (policy == Policy::kPf) {
    // PF compares lexicographic successor b-bit strings — not a
    // fixed-width tuple, deliberately not packed.
    EXPECT_FALSE(keys.packable());
    return;
  }
  ASSERT_TRUE(keys.packable());
  const std::vector<SubtaskRef> refs = all_refs(sys);
  for (const SubtaskRef& a : refs) {
    for (const SubtaskRef& b : refs) {
      const int c = order.compare(a, b);
      const std::uint64_t ka = keys.policy_key(a);
      const std::uint64_t kb = keys.policy_key(b);
      if (c < 0) {
        ASSERT_LT(ka, kb) << a << " vs " << b;
      } else if (c > 0) {
        ASSERT_GT(ka, kb) << a << " vs " << b;
      } else {
        ASSERT_EQ(ka, kb) << a << " vs " << b;
      }
      ASSERT_EQ(keys.order_key(a) < keys.order_key(b), order.higher(a, b))
          << a << " vs " << b;
    }
  }
}

constexpr Policy kAllPolicies[] = {Policy::kEpdf, Policy::kPf, Policy::kPd,
                                   Policy::kPd2};

TEST(PackedKey, MirrorsCompareOnPaperSystems) {
  const struct {
    const char* name;
    TaskSystem sys;
  } systems[] = {
      {"fig1_periodic", fig1_periodic()},
      {"fig1_intra_sporadic", fig1_intra_sporadic()},
      {"fig1_gis", fig1_gis()},
      {"fig2", fig2_scenario(kTick).system},
      {"fig3", fig3_scenario(kTick).system},
      {"fig6", fig6_system()},
  };
  for (const auto& s : systems) {
    for (const Policy policy : kAllPolicies) {
      expect_keys_mirror_compare(
          s.sys, policy,
          std::string(s.name) + "/" + std::string(to_string(policy)));
    }
  }
}

TEST(PackedKey, MirrorsCompareOnGeneratedWorkloads) {
  GeneratorConfig cfg;
  cfg.processors = 3;
  cfg.target_util = Rational(5, 2);
  cfg.weights = WeightClass::kMixed;
  cfg.horizon = 24;
  cfg.seed = 7;
  const TaskSystem periodic = generate_periodic(cfg);
  const TaskSystem jittered = add_is_jitter(periodic, 3, 1, 3, 11);
  const TaskSystem gis = drop_subtasks(jittered, 1, 6, 13);
  for (const Policy policy : kAllPolicies) {
    expect_keys_mirror_compare(periodic, policy, "periodic");
    expect_keys_mirror_compare(jittered, policy, "jittered");
    expect_keys_mirror_compare(gis, policy, "gis");
  }
}

// deadline_of and task_of decode the two ends of any order key — the
// probed placement hooks read tardiness through the first, the ready
// heap its entries' tasks through the second.  The one-task system has
// a task field zero bits wide.
TEST(PackedKey, DeadlineOfDecodesEveryKey) {
  GeneratorConfig cfg;
  cfg.processors = 3;
  cfg.target_util = Rational(5, 2);
  cfg.weights = WeightClass::kMixed;
  cfg.horizon = 40;
  cfg.seed = 9;
  const TaskSystem periodic = generate_periodic(cfg);
  const TaskSystem phased = advance_eligibility(periodic, 2, 1, 4, 5);
  const TaskSystem gis = drop_subtasks(add_is_jitter(periodic, 3, 1, 3, 7),
                                       1, 6, 3);
  const TaskSystem single({Task::periodic("solo", Weight(2, 3), 30)}, 1);
  for (const TaskSystem* sys : {&periodic, &phased, &gis, &single}) {
    for (const Policy policy : {Policy::kEpdf, Policy::kPd, Policy::kPd2}) {
      const PackedKeys keys(*sys, policy);
      ASSERT_TRUE(keys.packable());
      for (const SubtaskRef& ref : all_refs(*sys)) {
        const std::uint64_t key = keys.order_key(ref);
        ASSERT_EQ(keys.deadline_of(key), sys->subtask(ref).deadline)
            << ref << " " << to_string(policy);
        ASSERT_EQ(keys.task_of(key), ref.task)
            << ref << " " << to_string(policy);
      }
    }
  }
}

// The guarantee the packing leans on: within one task, pseudo-deadlines
// strictly increase, so the task-id tie-break never reorders same-task
// subtasks relative to `higher`.
TEST(PackedKey, WithinTaskDeadlinesStrictlyIncrease) {
  const TaskSystem sys = fig6_system();
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int32_t s = 1; s < task.num_subtasks(); ++s) {
      EXPECT_LT(task.subtask(s - 1).deadline, task.subtask(s).deadline);
    }
  }
}

}  // namespace
}  // namespace pfair
