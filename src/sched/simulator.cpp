#include "sched/simulator.hpp"

#include <algorithm>
#include <span>

#include "core/simd.hpp"
#include "obs/prof.hpp"

namespace pfair {

SfqSimulator::SfqSimulator(const TaskSystem& sys, Policy policy, Arena* arena,
                           SlotSchedule* out)
    : sys_(&sys),
      order_(sys, policy),
      keys_(sys, policy, arena),
      ready_q_(order_, keys_, arena),
      owned_sched_(out == nullptr ? std::optional(SlotSchedule(sys, false))
                                  : std::nullopt),  // grows as the run goes
      sched_(out == nullptr ? &*owned_sched_ : out),
      budget_(*sched_, sys.max_deadline()),
      hot_(arena),
      pos_(arena),
      calendar_(arena),
      scratch_picks_(arena),
      remaining_(sys.total_subtasks()) {
  PFAIR_REQUIRE(out == nullptr ||
                    (out->num_tasks() == sys.num_tasks() &&
                     out->placed_count() == 0 &&
                     out->store_.subtasks() == sys.total_subtasks()),
                "external schedule does not match the task system");

  const std::int64_t n = sys.num_tasks();
  hot_.resize(static_cast<std::size_t>(n));
  ready_q_.reserve(static_cast<std::size_t>(n));
  build_positions(sys, keys_, pos_, [&](std::int64_t k, const HeadCursor& c) {
    HotTask& h = hot_[static_cast<std::size_t>(k)];
    static_cast<HeadCursor&>(h) = c;
    h.last_slot = -1;
    if (!h.done()) {
      calendar_.push(std::max<std::int64_t>(h.eligible(pos_.data()), 0),
                     static_cast<std::int32_t>(k));
    }
  });
  if (out != nullptr) {
    out->store_all();  // so growing it is a no-op
    budget_.rebase(hot_);
  }
}

SlotSchedule SfqSimulator::take_schedule() && {
  PFAIR_REQUIRE(owned_sched_.has_value(),
                "take_schedule with an externally owned schedule");
  return std::move(*owned_sched_);
}

void SfqSimulator::place_fast(const HotTask& h, std::int32_t seq, int proc) {
  SlotSchedule::Cell& c = budget_.cells()[h.cell_base + seq];
  PFAIR_ASSERT(c.slot_p1 == 0);
  c.slot_p1 = now_ + 1;
  c.proc_p1 = proc + 1;
  ++sched_->placed_;
  sched_->horizon_ = std::max(sched_->horizon_, now_ + 1);
}

void SfqSimulator::commit_placement(const SubtaskRef& ref) {
  HotTask& h = hot_[static_cast<std::size_t>(ref.task)];
  h.last_slot = now_;
  --remaining_;
  if (!h.advance(pos_.data())) return;
  // The successor becomes available at the later of its eligibility
  // time and the slot after its predecessor's quantum.
  calendar_.push(std::max<std::int64_t>(h.eligible(pos_.data()), now_ + 1),
                 ref.task);
}

std::vector<SubtaskRef> SfqSimulator::ready() const {
  std::vector<SubtaskRef> out;
  const auto n = static_cast<std::size_t>(sys_->num_tasks());
  for (std::size_t k = 0; k < n; ++k) {
    const HotTask& h = hot_[k];
    if (h.done()) continue;
    // Ready at now(): eligible, predecessor (if any) completed by now().
    if (h.eligible(pos_.data()) > now_) continue;
    if (h.head > 0 && h.last_slot >= now_) continue;
    out.push_back(SubtaskRef{static_cast<std::int32_t>(k), h.head});
  }
  return out;
}

std::vector<SubtaskRef> SfqSimulator::step() {
  budget_.grow(now_ + 1, hot_, pos_.data());
  scratch_picks_.clear();
  step_into(scratch_picks_);
  return std::vector<SubtaskRef>(scratch_picks_.begin(), scratch_picks_.end());
}

void SfqSimulator::step_into(ArenaVector<SubtaskRef>& picks) {
  {
    PFAIR_PROF_SPAN(kCalendarWalk);
    // Move every head that became available by now() into the ready
    // heap.  A calendar entry always names its task's *current* head: it
    // was made when the predecessor was placed (or at construction), and
    // the head cannot be scheduled again before this drain.
    const HotTask* hot = hot_.data();
    while (!calendar_.empty() && calendar_.min_slot() <= now_) {
      calendar_.drain_min([&](std::span<const std::int32_t> tasks) {
        for (const std::int32_t k : tasks) {
          simd::prefetch(&hot[static_cast<std::size_t>(k)]);
        }
        for (const std::int32_t k : tasks) {
          ready_q_.push(k, hot[static_cast<std::size_t>(k)]);
        }
      });
    }
  }
  {
    PFAIR_PROF_SPAN(kReadyHeap);
    if (probe_.enabled()) [[unlikely]] {
      step_fast<true>(picks);
    } else {
      step_fast<false>(picks);
    }
  }
}

void SfqSimulator::set_trace_sink(TraceSink* sink) {
  PFAIR_REQUIRE(!wants_explain(sink),
                "the simulator emits decision events only; explain events "
                "come from schedule_sfq_reference (or schedule_sfq, which "
                "routes such a sink there)");
  probe_.set_sink(sink);
}

void SfqSimulator::attach_metrics(MetricsRegistry& reg) {
  probe_.attach_metrics(reg);
}

void SfqSimulator::detach_metrics() { probe_.detach_metrics(); }

template <bool kProbed>
void SfqSimulator::step_fast(ArenaVector<SubtaskRef>& picks) {
  [[maybe_unused]] const Time at = Time::slots(now_);
  if constexpr (kProbed) {
    probe_.begin_decision(TraceEventKind::kSlotBegin, at, now_);
    probe_.ready_size(static_cast<std::int64_t>(ready_q_.size()));
  }
  const auto m = static_cast<std::size_t>(sys_->processors());
  const HotTask* hot = hot_.data();
  while (picks.size() < m && !ready_q_.empty()) {
    // Overlap the root task's hot-record fetch with the pop's sift-down.
    simd::prefetch(&hot[static_cast<std::size_t>(ready_q_.peek_task())]);
    // Every queued task's head is its queued subtask: entries leave the
    // queue only by being popped here (warp rebuilds it outright).
    const std::int32_t k = ready_q_.pop_task();
    const HotTask& h = hot[static_cast<std::size_t>(k)];
    const SubtaskRef ref{k, h.head};
    const int proc = static_cast<int>(picks.size());
    place_fast(h, ref.seq, proc);
    if constexpr (kProbed) note_placement(at, ref, proc, h.next_key);
    commit_placement(ref);
    picks.push_back(ref);
  }
  ++now_;
  if constexpr (kProbed) probe_.end_decision();
}

// noinline: probe-only code; folding it into step() costs the unprobed
// path measurable icache pressure.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void SfqSimulator::note_placement(Time at, SubtaskRef ref, int proc,
                                  std::uint64_t key) {
  probe_.place(at, ref, proc, now_);
  if (ref.seq > 0 && probe_.tracing()) {
    const int prev = sched_->placement(SubtaskRef{ref.task, ref.seq - 1}).proc;
    if (prev >= 0 && prev != proc) probe_.migrate(at, ref, prev, proc);
  }
  const std::int64_t deadline = keys_.packable()
                                    ? keys_.deadline_of(key)
                                    : sys_->subtask(ref).deadline;
  const std::int64_t tard_slots = std::max<std::int64_t>(0, now_ + 1 - deadline);
  probe_.deadline(at, ref, tard_slots * kTicksPerSlot);
}

void SfqSimulator::run_until(std::int64_t slot_limit) {
  budget_.grow(slot_limit, hot_, pos_.data());
  const SchedProbe::Batch batch(probe_);
  while (!done() && now_ < slot_limit) {
    scratch_picks_.clear();
    step_into(scratch_picks_);
  }
}

void SfqSimulator::warp(std::int64_t cycles, std::int64_t cycle_slots,
                        const std::vector<std::int64_t>& cycle_allocs) {
  PFAIR_REQUIRE(!probe_.enabled(), "warp would skip trace events and metrics");
  PFAIR_REQUIRE(cycles >= 0 && cycle_slots > 0, "bad warp parameters");
  if (cycles == 0) return;
  const std::int64_t shift = cycles * cycle_slots;
  const auto n = static_cast<std::size_t>(sys_->num_tasks());
  const PosRec* pos = pos_.data();
  // The task's most recent quantum moved forward with the cycle; a task
  // idle through the whole cycle keeps its (pre-t0) last slot.
  remaining_ -= budget_.warp(cycles, cycle_allocs, shift, now_ + shift, hot_,
                             pos, [&](HotTask& h, std::int64_t adv) {
                               if (adv > 0) h.last_slot += shift;
                             });
  now_ += shift;
  // Rebuild the availability structures: every queued or bucketed entry
  // names a pre-warp head seq, so drop them all and re-derive each
  // task's availability from the counters (exactly as the constructor
  // and commit_placement would have).  The calendar restarts at the new
  // now_: indexing it from an earlier slot would make the first
  // post-warp entry grow it over every skipped slot.
  ready_q_.clear();
  calendar_.reset(now_);
  for (std::size_t k = 0; k < n; ++k) {
    const HotTask& h = hot_[k];
    if (h.done()) continue;
    const std::int64_t elig = h.eligible(pos);
    const std::int64_t avail =
        h.head == 0 ? std::max<std::int64_t>(elig, 0)
                    : std::max<std::int64_t>(elig, h.last_slot + 1);
    calendar_.push(std::max<std::int64_t>(avail, now_),
                   static_cast<std::int32_t>(k));
  }
}

Rational SfqSimulator::lag_of(std::int64_t task) const {
  const Rational w = sys_->task(task).weight().value();
  return w * Rational(now_) -
         Rational(hot_[static_cast<std::size_t>(task)].head);
}

}  // namespace pfair
