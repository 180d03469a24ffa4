#include "sched/schedule.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace pfair {

SlotPlacement SlotSchedule::placement(const SubtaskRef& ref) const {
  PFAIR_REQUIRE(ref.task >= 0 && ref.task < num_tasks(),
                "bad task in " << ref);
  PFAIR_REQUIRE(ref.seq >= 0 && ref.seq < num_subtasks(ref.task),
                "bad seq in " << ref);
  const Cell* c = store_.find(ref.task, ref.seq);
  return c == nullptr ? SlotPlacement{} : c->value();
}

void SlotSchedule::place(const SubtaskRef& ref, std::int64_t slot, int proc) {
  PFAIR_REQUIRE(slot >= 0, "cannot place in negative slot");
  (void)placement(ref);  // checks the ref
  Cell* c = store_.find(ref.task, ref.seq);
  PFAIR_REQUIRE(c != nullptr, "subtask " << ref << " is not stored");
  PFAIR_ASSERT_MSG(c->slot_p1 == 0, "subtask " << ref << " placed twice");
  c->slot_p1 = slot + 1;
  c->proc_p1 = proc + 1;
  ++placed_;
  horizon_ = std::max(horizon_, slot + 1);
}

void SlotSchedule::store_all() {
  store_.store_all([](std::int64_t, std::int64_t, std::int64_t) {});
}

void SlotSchedule::clear_placements() {
  store_.clear();
  horizon_ = 0;
  placed_ = 0;
}

std::int64_t SlotSchedule::completion_slot(const SubtaskRef& ref) const {
  const SlotPlacement p = placement(ref);
  PFAIR_REQUIRE(p.scheduled(), "subtask " << ref << " not scheduled");
  return p.slot + 1;
}

std::vector<SubtaskRef> SlotSchedule::slot_contents(std::int64_t slot) const {
  std::vector<SubtaskRef> out;
  for (std::int64_t k = 0; k < num_tasks(); ++k) {
    walk_task(k, [&](std::int32_t s, const SlotPlacement& p) {
      if (p.slot == slot) out.push_back(SubtaskRef{static_cast<std::int32_t>(k), s});
    });
  }
  std::sort(out.begin(), out.end(),
            [this](const SubtaskRef& a, const SubtaskRef& b) {
              return placement(a).proc < placement(b).proc;
            });
  return out;
}

}  // namespace pfair
