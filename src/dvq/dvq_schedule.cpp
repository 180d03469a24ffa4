#include "dvq/dvq_schedule.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace pfair {

namespace {

template <typename Cell>
Cell* alloc_cells(std::int64_t total) {
  auto* data = static_cast<Cell*>(
      std::calloc(static_cast<std::size_t>(std::max<std::int64_t>(total, 1)),
                  sizeof(Cell)));
  PFAIR_REQUIRE(data != nullptr, "schedule allocation failed");
  return data;
}

}  // namespace

DvqSchedule::DvqSchedule(const TaskSystem& sys)
    : cells_(nullptr, nullptr),
      busy_ticks_(static_cast<std::size_t>(sys.processors()), 0) {
  offsets_.reserve(static_cast<std::size_t>(sys.num_tasks()) + 1);
  std::int64_t total = 0;
  offsets_.push_back(0);
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    total += sys.task(k).num_subtasks();
    offsets_.push_back(total);
  }
  // calloc: an all-unplaced schedule costs no physical memory until
  // written.  The log grows with the placements rather than reserving an
  // entry per cell: a fast-forwarded run stores a small fraction of its
  // placements, and the up-front reservation measurably raised peak
  // memory.
  cells_ = std::unique_ptr<Cell[], void (*)(Cell*)>(
      alloc_cells<Cell>(total), +[](Cell* p) { std::free(p); });
}

DvqSchedule::DvqSchedule(const DvqSchedule& o)
    : offsets_(o.offsets_),
      cells_(alloc_cells<Cell>(o.total_cells()),
             +[](Cell* p) { std::free(p); }),
      log_(o.log_),
      busy_ticks_(o.busy_ticks_),
      makespan_(o.makespan_),
      placed_(o.placed_) {
  std::memcpy(cells_.get(), o.cells_.get(),
              static_cast<std::size_t>(total_cells()) * sizeof(Cell));
}

DvqSchedule& DvqSchedule::operator=(const DvqSchedule& o) {
  if (this != &o) *this = DvqSchedule(o);
  return *this;
}

DvqPlacement DvqSchedule::placement(const SubtaskRef& ref) const {
  PFAIR_REQUIRE(ref.task >= 0 && ref.task < num_tasks(),
                "bad task in " << ref);
  PFAIR_REQUIRE(ref.seq >= 0 && ref.seq < num_subtasks(ref.task),
                "bad seq in " << ref);
  return flat_placement(offsets_[static_cast<std::size_t>(ref.task)] +
                        ref.seq);
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
  const std::int64_t i = offsets_[static_cast<std::size_t>(ref.task)] +
                         ref.seq;
  cells_[static_cast<std::size_t>(i)] =
      Cell{start.raw_ticks(), static_cast<std::int32_t>(cost.raw_ticks()),
           proc + 1};
  log_.push_back(i);
  ++placed_;
  busy_ticks_[static_cast<std::size_t>(proc)] += cost.raw_ticks();
  makespan_ = std::max(makespan_, start + cost);
}

}  // namespace pfair
