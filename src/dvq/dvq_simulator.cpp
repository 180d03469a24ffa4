#include "dvq/dvq_simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>

#include "core/assert.hpp"
#include "core/simd.hpp"
#include "obs/prof.hpp"

namespace pfair {

DvqSimulator::DvqSimulator(const TaskSystem& sys, const YieldModel& yields,
                           Policy policy, Arena* arena, bool staggered_grid)
    : sys_(&sys),
      yields_(&yields),
      order_(sys, policy),
      keys_(sys, policy, arena),
      ready_q_(order_, keys_, arena),
      sched_(sys, false),  // grows as the run goes
      budget_(sched_, sys.max_deadline()),
      grid_(staggered_grid),
      hot_(arena),
      pos_(arena),
      procs_(arena),
      completions_(arena),
      free_bits_(arena),
      calendar_(arena),
      handed_(arena),
      remaining_(sys.total_subtasks()) {
  const auto m = static_cast<std::size_t>(sys.processors());
  procs_.resize(m);
  for (std::size_t pi = 0; pi < m; ++pi) procs_[pi] = Proc{};
  completions_.reserve(2 * m + 1);
  free_bits_.resize((m + 63) / 64);
  for (std::size_t w = 0; w < free_bits_.size(); ++w) free_bits_[w] = 0;
  for (std::int32_t k = 0; k < sys.processors(); ++k) {
    if (grid_) {
      book_until(k, Time::ticks(k * kTicksPerSlot / sys.processors()));
    } else {
      free_proc(k);
    }
  }

  const auto n = static_cast<std::size_t>(sys.num_tasks());
  hot_.resize(n);
  ready_q_.reserve(n);
  // The calendar starts at the earliest first eligibility (0 unless a
  // hand-built task is eligible before time 0).
  std::int64_t base = 0;
  build_positions(sys, keys_, pos_, [&](std::int64_t k, const HeadCursor& c) {
    HotTask& h = hot_[static_cast<std::size_t>(k)];
    static_cast<HeadCursor&>(h) = c;
    h.ready_at = 0;
    h.wait = kReady;
    if (h.done()) return;
    const std::int64_t elig = h.eligible(pos_.data());
    h.ready_at = Time::slots(elig).raw_ticks();
    base = std::min(base, elig);
  });
  calendar_.reset(base);
  for (std::size_t k = 0; k < n; ++k) {
    if (!hot_[k].done()) {
      wait_in_calendar(static_cast<std::int32_t>(k),
                       hot_[k].ready_at / kTicksPerSlot);
    }
  }
}

void DvqSimulator::free_proc(std::int32_t proc) {
  free_bits_[static_cast<std::size_t>(proc) / 64] |=
      std::uint64_t{1} << (proc % 64);
  ++free_count_;
}

void DvqSimulator::book_until(std::int32_t proc, Time at) {
  Proc& pr = procs_[static_cast<std::size_t>(proc)];
  pr.busy_until = at;
  pr.hand_off = -1;
  add_completion(Completion{at, proc});
}

int DvqSimulator::pop_free_proc() {
  PFAIR_ASSERT(free_count_ > 0);
  std::size_t w = 0;
  while (free_bits_[w] == 0) ++w;
  const int bit = std::countr_zero(free_bits_[w]);
  free_bits_[w] &= free_bits_[w] - 1;
  --free_count_;
  return static_cast<int>(w * 64) + bit;
}

void DvqSimulator::wait_in_calendar(std::int32_t k, std::int64_t slot) {
  hot_[static_cast<std::size_t>(k)].wait = kCalendar;
  calendar_.push(slot, k);
}

void DvqSimulator::make_ready(std::int32_t k) {
  HotTask& h = hot_[static_cast<std::size_t>(k)];
  h.wait = kReady;
  ready_q_.push(k, h);
}

void DvqSimulator::add_completion(Completion c) {
  // Keep the block from creeping: once half of it is retired entries,
  // move the live ones to the front.
  if (comp_head_ > 0 && 2 * comp_head_ >= completions_.size()) {
    std::copy(completions_.begin() + static_cast<std::ptrdiff_t>(comp_head_),
              completions_.end(), completions_.begin());
    completions_.resize(completions_.size() - comp_head_);
    comp_head_ = 0;
  }
  completions_.push_back(c);
  std::size_t j = completions_.size() - 1;
  for (; j > comp_head_ && c.at < completions_[j - 1].at; --j) {
    completions_[j] = completions_[j - 1];
  }
  completions_[j] = c;
}

Time DvqSimulator::next_event_time() const {
  PFAIR_ASSERT(has_events());
  Time t = Time::ticks(std::numeric_limits<std::int64_t>::max());
  if (comp_head_ < completions_.size()) t = completions_[comp_head_].at;
  if (!calendar_.empty()) t = std::min(t, Time::slots(calendar_.min_slot()));
  return t;
}

template <bool kGrid>
Time DvqSimulator::commit_placement(const SubtaskRef& ref, Time t,
                                    int proc) {
  const Time c = yields_->checked_cost(*sys_, ref);
  HotTask& h = hot_[static_cast<std::size_t>(ref.task)];
  const Time end = t + c;
  // The unchecked counterpart of DvqSchedule::place: the head cursor
  // guarantees a valid, never-placed ref and the dispatch a valid
  // processor.
  {
    const auto i = h.cell_base + ref.seq;
    DvqSchedule::Cell& cell = budget_.cells()[i];
    PFAIR_ASSERT(cell.proc_p1 == 0);
    cell = DvqSchedule::Cell{t.raw_ticks(),
                             static_cast<std::int32_t>(c.raw_ticks()),
                             proc + 1};
    sched_.log_.push_back(i);
    ++sched_.placed_;
    sched_.busy_ticks_[static_cast<std::size_t>(proc)] += c.raw_ticks();
    sched_.makespan_ = std::max(sched_.makespan_, end);
  }
  book_until(proc, end);
  Proc& pr = procs_[static_cast<std::size_t>(proc)];
  if (kGrid) pr.busy_until = t + kQuantum;  // staggered: next boundary
  --remaining_;
  if (!h.advance(pos_.data())) return c;
  // The successor's readiness instant is known now: the later of its
  // eligibility time and this quantum's completion.
  const std::int64_t elig = h.eligible(pos_.data());
  const std::int64_t elig_ticks = Time::slots(elig).raw_ticks();
  if (elig_ticks > end.raw_ticks()) {
    h.ready_at = elig_ticks;
    wait_in_calendar(ref.task, elig);
  } else {
    h.ready_at = end.raw_ticks();
    h.wait = kHandOff;
    pr.hand_off = ref.task;
  }
  return c;
}

std::vector<SubtaskRef> DvqSimulator::step() {
  std::vector<SubtaskRef> started;
  if (!has_events()) return started;
  const Time t = next_event_time();
  // Work starting at t is eligible by t's slot.
  budget_.grow(t.slot_floor() + 1, hot_, pos_.data());
  grid_ ? step_into<true>(started, t) : step_into<false>(started, t);
  return started;
}

template <bool kGrid>
void DvqSimulator::step_into(std::vector<SubtaskRef>& started, Time t) {
  now_ = t;
  // 1. Retire completions at t, handing each processor's waiting
  // successor to the ready heap, then drain the calendar slot at t: all
  // of them join the ready heap for this very batch.
  while (comp_head_ < completions_.size() &&
         completions_[comp_head_].at <= t) {
    PFAIR_ASSERT(completions_[comp_head_].at == t);
    const std::int32_t proc = completions_[comp_head_++].proc;
    Proc& pr = procs_[static_cast<std::size_t>(proc)];
    if (pr.hand_off >= 0) make_ready(pr.hand_off);
    if (kGrid && pr.busy_until > t) {
      book_until(proc, pr.busy_until);  // staggered: idle until its boundary
    } else {
      free_proc(proc);
    }
  }
  if (!calendar_.empty() && Time::slots(calendar_.min_slot()) == t) {
    // A calendar entry always names its task's *current* head: it was
    // made when the predecessor was placed (or at construction), and the
    // head cannot be scheduled before this drain.
    calendar_.drain_min([this](std::span<const std::int32_t> tasks) {
      for (const std::int32_t k : tasks) {
        simd::prefetch(&hot_[static_cast<std::size_t>(k)]);
      }
      for (const std::int32_t k : tasks) make_ready(k);
    });
  }

  // 2.+3. Dispatch.  No spans at this granularity: an event costs a few
  // hundred nanoseconds, so even one clock-read pair per event would be
  // double-digit overhead — run_until() scopes the whole loop instead.
  if (probe_.enabled()) [[unlikely]] {
    step_fast<true, kGrid>(started, t);
  } else {
    step_fast<false, kGrid>(started, t);
  }
  // Staggered: a processor nothing was ready for waits a slot.
  while (kGrid && free_count_ > 0) book_until(pop_free_proc(), t + kQuantum);
}

void DvqSimulator::set_trace_sink(TraceSink* sink) {
  PFAIR_REQUIRE(!grid_ || sink == nullptr, "staggered runs are unobserved");
  probe_.set_sink(sink);
}

void DvqSimulator::attach_metrics(MetricsRegistry& reg) {
  PFAIR_REQUIRE(!grid_, "staggered runs are unobserved");
  probe_.attach_metrics(reg);
}

void DvqSimulator::detach_metrics() { probe_.detach_metrics(); }

template <bool kProbed, bool kGrid>
void DvqSimulator::step_fast(std::vector<SubtaskRef>& started, Time t) {
  if constexpr (kProbed) {
    probe_.begin_decision(TraceEventKind::kEventBegin, t);
    // The ready set is only consulted when a processor is free.
    if (free_count_ > 0) {
      if (probe_.explaining()) explain_free(t);
      probe_.ready_set(t, static_cast<std::int64_t>(ready_q_.size()));
    }
  }
  // 2.+3. Hand each free processor (ascending id) the highest-priority
  // ready subtask, immediately (work-conserving).  Every queued entry
  // names its task's current head: entries leave the queue only by
  // being popped here (warp rebuilds it outright).
  while (free_count_ > 0 && !ready_q_.empty()) {
    simd::prefetch(&hot_[static_cast<std::size_t>(ready_q_.peek_task())]);
    const std::int32_t k = ready_q_.pop_task();
    const HotTask& h = hot_[static_cast<std::size_t>(k)];
    const SubtaskRef ref{k, h.head};
    [[maybe_unused]] const std::uint64_t key = h.next_key;  // pre-commit
    const int proc = pop_free_proc();
    [[maybe_unused]] const Time c = commit_placement<kGrid>(ref, t, proc);
    if constexpr (kProbed) note_placement(t, ref, proc, c, key);
    started.push_back(ref);
  }
  if constexpr (kProbed) {
    if (probe_.explaining()) explain_denials(t, started);
    probe_.end_decision();
  }
}

// noinline: probe-only code, as note_placement.
[[gnu::noinline]] void DvqSimulator::explain_free(Time t) {
  // Free processors in ascending id; one freed at t by a completion that
  // handed its task's successor to the ready heap names that task.
  for (std::int32_t p = 0; p < sys_->processors(); ++p) {
    if (proc_busy(p)) continue;
    probe_.proc_free(t, p);
    const Proc& pr = procs_[static_cast<std::size_t>(p)];
    if (pr.busy_until == t && pr.hand_off >= 0) {
      handed_.push_back(SubtaskRef{
          pr.hand_off, hot_[static_cast<std::size_t>(pr.hand_off)].head});
    }
  }
}

[[gnu::noinline]] void DvqSimulator::explain_denials(
    Time t, const std::vector<SubtaskRef>& started) {
  ready_q_.explain_cut(probe_, t, started, hot_.data());
  // Preemptions: successors handed off at t that are still waiting.
  std::sort(handed_.begin(), handed_.end());
  for (const SubtaskRef& ref : handed_) {
    if (hot_[static_cast<std::size_t>(ref.task)].head == ref.seq) {
      probe_.preempt(t, ref);
    }
  }
  handed_.clear();
  probe_.idle(t, static_cast<std::int64_t>(free_count_));
}

// noinline: probe-only code; folding it into step() costs the unprobed
// path measurable icache pressure.
[[gnu::noinline]] void DvqSimulator::note_placement(Time t, SubtaskRef ref,
                                                    int proc, Time c,
                                                    std::uint64_t key) {
  probe_.place(t, ref, proc, c.raw_ticks());
  if (ref.seq > 0 && probe_.tracing()) {
    const int prev = sched_.placement(SubtaskRef{ref.task, ref.seq - 1}).proc;
    if (prev >= 0 && prev != proc) probe_.migrate(t, ref, prev, proc);
  }
  const std::int64_t deadline = keys_.packable()
                                    ? keys_.deadline_of(key)
                                    : sys_->subtask(ref).deadline;
  const std::int64_t tard = std::max<std::int64_t>(
      0, (t + c).raw_ticks() - deadline * kTicksPerSlot);
  probe_.deadline(t, ref, tard);
}

void DvqSimulator::run_until(Time time_limit) {
  // Work starting before the limit is eligible before its ceiling slot.
  const std::int64_t ticks = time_limit.raw_ticks();
  budget_.grow(ticks / kTicksPerSlot + (ticks % kTicksPerSlot > 0 ? 1 : 0),
               hot_, pos_.data());
  PFAIR_PROF_SPAN(kDvqEvents);
  const SchedProbe::Batch batch(probe_);
  while (remaining_ > 0 && has_events()) {
    const Time t = next_event_time();
    if (t >= time_limit) break;
    scratch_started_.clear();
    grid_ ? step_into<true>(scratch_started_, t)
          : step_into<false>(scratch_started_, t);
  }
}

void DvqSimulator::warp(std::int64_t cycles, std::int64_t cycle_slots,
                        const std::vector<std::int64_t>& cycle_allocs,
                        std::int64_t boundary_slot) {
  PFAIR_REQUIRE(!grid_, "staggered runs do not warp");
  PFAIR_REQUIRE(!probe_.enabled(), "warp would skip trace events and metrics");
  PFAIR_REQUIRE(cycles >= 0 && cycle_slots > 0, "bad warp parameters");
  if (cycles == 0) return;
  const std::int64_t shift_slots = cycles * cycle_slots;
  const Time shift = Time::slots(shift_slots);
  const std::int64_t resume = boundary_slot + shift_slots;
  remaining_ -= budget_.warp(cycles, cycle_allocs, shift_slots, resume, hot_,
                             pos_.data(), [&](HotTask& h, std::int64_t) {
                               if (!h.done()) h.ready_at += shift.raw_ticks();
                             });
  // Uniform time shifts preserve completion order, so release times
  // (unread while idle) and completion events move in place; a hand-off
  // whose task the warp exhausted is void.
  for (Proc& pr : procs_) {
    pr.busy_until = pr.busy_until + shift;
    if (pr.hand_off >= 0 &&
        hot_[static_cast<std::size_t>(pr.hand_off)].done()) {
      pr.hand_off = -1;
    }
  }
  for (std::size_t i = comp_head_; i < completions_.size(); ++i) {
    completions_[i].at = completions_[i].at + shift;
  }
  now_ = now_ + shift;
  // Queued entries and calendar lists name pre-warp seqs — rebuild both.
  // Each head rejoins where it waited at the boundary (every calendar
  // instant lies at or after it, so the calendar restarts there).
  ready_q_.clear();
  calendar_.reset(resume);
  for (std::size_t k = 0; k < hot_.size(); ++k) {
    const HotTask& h = hot_[k];
    if (h.done() || h.wait == kHandOff) continue;
    const auto task = static_cast<std::int32_t>(k);
    if (h.wait == kCalendar) {
      calendar_.push(h.ready_at / kTicksPerSlot, task);
    } else {
      make_ready(task);
    }
  }
}

std::vector<int> DvqSimulator::idle_processors() const {
  std::vector<int> out;
  for (int p = 0; p < sys_->processors(); ++p) {
    if (!proc_busy(p)) out.push_back(p);
  }
  return out;
}

}  // namespace pfair
