#include "dvq/dvq_schedule.hpp"

#include <algorithm>

namespace pfair {

DvqSchedule::DvqSchedule(const TaskSystem& sys, bool all)
    : store_(sys, all),
      busy_ticks_(static_cast<std::size_t>(sys.processors()), 0) {
  // The log grows with the placements rather than reserving an entry
  // per cell: a fast-forwarded run stores a small fraction of its
  // placements, and the up-front reservation measurably raised peak
  // memory.
}

DvqPlacement DvqSchedule::placement(const SubtaskRef& ref) const {
  PFAIR_REQUIRE(ref.task >= 0 && ref.task < num_tasks(),
                "bad task in " << ref);
  PFAIR_REQUIRE(ref.seq >= 0 && ref.seq < num_subtasks(ref.task),
                "bad seq in " << ref);
  const Cell* c = store_.find(ref.task, ref.seq);
  return c == nullptr ? DvqPlacement{} : c->value();
}

void DvqSchedule::place(const SubtaskRef& ref, Time start, Time cost,
                        int proc) {
  PFAIR_REQUIRE(cost > Time() && cost <= kQuantum,
                "cost must lie in (0,1], got " << cost);
  PFAIR_REQUIRE(proc >= 0 &&
                    static_cast<std::size_t>(proc) < busy_ticks_.size(),
                "bad processor " << proc);
  PFAIR_ASSERT_MSG(!placement(ref).placed,
                   "subtask " << ref << " placed twice");
  Cell* c = store_.find(ref.task, ref.seq);
  PFAIR_REQUIRE(c != nullptr, "subtask " << ref << " is not stored");
  *c = Cell{start.raw_ticks(), static_cast<std::int32_t>(cost.raw_ticks()),
            proc + 1};
  log_.push_back(c - store_.data());
  ++placed_;
  busy_ticks_[static_cast<std::size_t>(proc)] += cost.raw_ticks();
  makespan_ = std::max(makespan_, start + cost);
}

void DvqSchedule::store_all() {
  renumbered([this](const auto& moved) { return store_.store_all(moved); });
}

}  // namespace pfair
