#include "dvq/dvq_simulator.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "obs/prof.hpp"
#include "obs/quality.hpp"

namespace pfair {

namespace {

// Min-heap orderings for std::push_heap/pop_heap (which build max-heaps,
// so "lower priority" means "later time" / "larger id").
constexpr auto kLaterCompletion = [](const auto& a, const auto& b) {
  return b.at < a.at;
};
constexpr auto kLaterPending = [](const auto& a, const auto& b) {
  return b.at < a.at;
};
constexpr auto kLargerProc = [](std::int32_t a, std::int32_t b) {
  return b < a;
};

}  // namespace

DvqSimulator::DvqSimulator(const TaskSystem& sys, const YieldModel& yields,
                           Policy policy, Arena* arena)
    : sys_(&sys),
      yields_(&yields),
      order_(sys, policy),
      keys_(sys, policy, arena),
      ready_q_(order_, keys_, arena),
      sched_(sys),
      procs_(arena),
      head_(arena),
      ready_at_(arena),
      completions_(arena),
      pending_(arena),
      free_procs_(arena),
      remaining_(sys.total_subtasks()) {
  procs_.resize(static_cast<std::size_t>(sys.processors()));
  head_.resize(static_cast<std::size_t>(sys.num_tasks()));
  ready_at_.resize(static_cast<std::size_t>(sys.num_tasks()));
  for (std::size_t pi = 0; pi < procs_.size(); ++pi) procs_[pi] = Proc{};
  for (std::size_t k = 0; k < head_.size(); ++k) {
    head_[k] = 0;
    ready_at_[k] = Time();
  }
  ready_q_.reserve(head_.size());
  pending_.reserve(head_.size());
  completions_.reserve(procs_.size());
  free_procs_.reserve(procs_.size());
  for (std::size_t pi = 0; pi < procs_.size(); ++pi) {
    free_procs_.push_back(static_cast<std::int32_t>(pi));
  }
  std::make_heap(free_procs_.begin(), free_procs_.end(), kLargerProc);
  for (std::size_t k = 0; k < head_.size(); ++k) {
    const Task& task = sys.task(static_cast<std::int64_t>(k));
    if (task.num_subtasks() > 0) {
      ready_at_[k] = Time::slots(task.eligible_at(0));
      pending_.push_back(Pending{
          ready_at_[k], SubtaskRef{static_cast<std::int32_t>(k), 0}});
    }
  }
  std::make_heap(pending_.begin(), pending_.end(), kLaterPending);
}

Time DvqSimulator::next_event_time() const {
  PFAIR_ASSERT(has_events());
  if (completions_.empty()) return pending_.front().at;
  if (pending_.empty()) return completions_.front().at;
  return std::min(completions_.front().at, pending_.front().at);
}

Time DvqSimulator::commit_placement(const SubtaskRef& ref, Time t,
                                    int proc) {
  const Time c = yields_->checked_cost(*sys_, ref);
  sched_.place(ref, t, c, proc);
  Proc& pr = procs_[static_cast<std::size_t>(proc)];
  pr.busy = true;
  pr.busy_until = t + c;
  completions_.push_back(
      Completion{pr.busy_until, static_cast<std::int32_t>(proc)});
  std::push_heap(completions_.begin(), completions_.end(), kLaterCompletion);
  const auto k = static_cast<std::size_t>(ref.task);
  ++head_[k];
  --remaining_;
  // The successor's readiness instant is known now: the later of its
  // eligibility time and this quantum's completion.
  const Task& task = sys_->task(ref.task);
  if (head_[k] < task.num_subtasks()) {
    ready_at_[k] = std::max(
        Time::slots(task.eligible_at(head_[k])), pr.busy_until);
    pending_.push_back(Pending{
        ready_at_[k], SubtaskRef{ref.task, ref.seq + 1}});
    std::push_heap(pending_.begin(), pending_.end(), kLaterPending);
  }
  return c;
}

std::vector<SubtaskRef> DvqSimulator::step() {
  std::vector<SubtaskRef> started;
  if (!has_events()) return started;
  step_into(started);
  return started;
}

void DvqSimulator::step_into(std::vector<SubtaskRef>& started) {
  const Time t = next_event_time();
  now_ = t;

  {
    // 1. Retire completions at t; successors whose readiness instant has
    // arrived join the ready heap for this very batch.
    while (!completions_.empty() && completions_.front().at <= t) {
      PFAIR_ASSERT(completions_.front().at == t);
      const std::int32_t proc = completions_.front().proc;
      std::pop_heap(completions_.begin(), completions_.end(),
                    kLaterCompletion);
      completions_.pop_back();
      procs_[static_cast<std::size_t>(proc)].busy = false;
      free_procs_.push_back(proc);
      std::push_heap(free_procs_.begin(), free_procs_.end(), kLargerProc);
    }
    while (!pending_.empty() && pending_.front().at <= t) {
      ready_q_.push(pending_.front().ref);
      std::pop_heap(pending_.begin(), pending_.end(), kLaterPending);
      pending_.pop_back();
    }
  }

  const std::size_t free0 = free_procs_.size();
  const std::size_t base = started.size();
  // 2.+3. Dispatch.  No spans at this granularity: an event costs a few
  // hundred nanoseconds, so even one clock-read pair per event would be
  // double-digit overhead — run_until() scopes the whole loop instead.
  if (probe_.enabled()) [[unlikely]] {
    step_fast<true>(started, t);
  } else {
    step_fast<false>(started, t);
  }
  if (quality_ != nullptr) [[unlikely]] {
    note_quality_event(free0, started, base);
  }
}

void DvqSimulator::set_trace_sink(TraceSink* sink) {
  PFAIR_REQUIRE(!wants_explain(sink),
                "the simulator emits decision events only; explain events "
                "come from schedule_dvq_reference (or schedule_dvq, which "
                "routes such a sink there)");
  probe_.set_sink(sink);
}

void DvqSimulator::attach_metrics(MetricsRegistry& reg) {
  probe_.attach_metrics(reg);
  if (quality_ == nullptr) {
    metric_quality_ = QualityCounters{};
    start_quality(&metric_quality_);
  }
}

void DvqSimulator::detach_metrics() {
  probe_.detach_metrics();
  if (quality_ == &metric_quality_) start_quality(nullptr);
}

void DvqSimulator::set_quality(QualityCounters* q) {
  PFAIR_REQUIRE(q == nullptr || remaining_ == sys_->total_subtasks(),
                "attach quality counters before the first step");
  if (q == nullptr && probe_.metering()) {
    metric_quality_ = QualityCounters{};
    q = &metric_quality_;
  }
  start_quality(q);
}

void DvqSimulator::start_quality(QualityCounters* q) {
  quality_ = q;
  if (q == nullptr) return;
  const auto procs = static_cast<std::size_t>(sys_->processors());
  q->resize_procs(procs);
  proc_task_.assign(procs, -1);
}

#if defined(__GNUC__)
__attribute__((noinline))
#endif
void DvqSimulator::note_quality_event(std::size_t free0,
                                      const std::vector<SubtaskRef>& started,
                                      std::size_t base) {
  QualityCounters& q = *quality_;
  ++q.decision_points;
  std::int64_t migrations = 0;
  std::int64_t preemptions = 0;
  for (std::size_t i = base; i < started.size(); ++i) {
    const SubtaskRef ref = started[i];
    const DvqPlacement& pl = sched_.placement(ref);
    const int proc = pl.proc;
    if (ref.seq > 0) {
      const DvqPlacement& prev =
          sched_.placement(SubtaskRef{ref.task, ref.seq - 1});
      if (prev.proc >= 0 && prev.proc != proc) ++migrations;
      // Preemption: this subtask was ready the instant its predecessor
      // completed (eligibility had already passed) yet starts strictly
      // later — the task was descheduled in between.  Charged once, at
      // the start (the tick-space analog of the SFQ slot rule).
      const Time prev_end = prev.completion();
      if (pl.start > prev_end &&
          Time::slots(sys_->task(ref.task).eligible_at(ref.seq)) <=
              prev_end) {
        ++preemptions;
      }
    }
    std::int32_t& occupant = proc_task_[static_cast<std::size_t>(proc)];
    if (occupant != ref.task) {
      if (occupant >= 0) {
        ++q.context_switches;
        ++q.per_proc_switches[static_cast<std::size_t>(proc)];
      }
      occupant = ref.task;
    }
  }
  // No capacity at this instant (a readiness event landed while every
  // processor was busy): nothing is idle.  Otherwise every free
  // processor the work-conserving dispatch left unfilled idles for this
  // decision instant.
  const std::size_t placed = started.size() - base;
  const auto idle =
      static_cast<std::int64_t>(free0 > placed ? free0 - placed : 0);
  q.migrations += migrations;
  q.preemptions += preemptions;
  q.idle_slots += idle;
  probe_.count_quality(preemptions, migrations, idle);
}

template <bool kProbed>
void DvqSimulator::step_fast(std::vector<SubtaskRef>& started, Time t) {
  if constexpr (kProbed) {
    probe_.begin_decision(TraceEventKind::kEventBegin, t);
    // The ready set is only consulted when a processor is free.
    if (!free_procs_.empty()) {
      probe_.ready_size(static_cast<std::int64_t>(ready_q_.size()));
    }
  }
  // 2.+3. Hand each free processor (ascending id) the highest-priority
  // ready subtask, immediately (work-conserving).  Every queued entry
  // names its task's current head: entries leave the queue only by
  // being popped here (warp rebuilds it outright).
  while (!free_procs_.empty() && !ready_q_.empty()) {
    const SubtaskRef ref = ready_q_.pop_best();
    const std::int32_t proc = free_procs_.front();
    std::pop_heap(free_procs_.begin(), free_procs_.end(), kLargerProc);
    free_procs_.pop_back();
    [[maybe_unused]] const Time c = commit_placement(ref, t, proc);
    if constexpr (kProbed) note_placement(t, ref, proc, c);
    started.push_back(ref);
  }
  if constexpr (kProbed) probe_.end_decision();
}

// noinline: probe-only code; folding it into step() costs the unprobed
// path measurable icache pressure.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void DvqSimulator::note_placement(Time t, SubtaskRef ref, int proc,
                                  Time c) {
  probe_.place(t, ref, proc, c.raw_ticks());
  if (ref.seq > 0 && probe_.tracing()) {
    const int prev = sched_.placement(SubtaskRef{ref.task, ref.seq - 1}).proc;
    if (prev >= 0 && prev != proc) probe_.migrate(t, ref, prev, proc);
  }
  const std::int64_t deadline = keys_.packable()
                                    ? keys_.deadline_of(keys_.order_key(ref))
                                    : sys_->subtask(ref).deadline;
  const std::int64_t tard = std::max<std::int64_t>(
      0, (t + c).raw_ticks() - deadline * kTicksPerSlot);
  probe_.deadline(t, ref, tard);
}

void DvqSimulator::run_until(Time time_limit) {
  PFAIR_PROF_SPAN(kDvqEvents);
  while (remaining_ > 0 && has_events() &&
         next_event_time() < time_limit) {
    scratch_started_.clear();
    step_into(scratch_started_);
  }
}

void DvqSimulator::warp(std::int64_t cycles, std::int64_t cycle_slots,
                        const std::vector<std::int64_t>& cycle_allocs,
                        std::int64_t boundary_slot) {
  PFAIR_REQUIRE(!probe_.enabled(), "warp would skip trace events and metrics");
  PFAIR_REQUIRE(quality_ == nullptr, "warp would skip quality accounting");
  PFAIR_REQUIRE(cycles >= 0 && cycle_slots > 0, "bad warp parameters");
  if (cycles == 0) return;
  const Time shift = Time::ticks(cycles * cycle_slots * kTicksPerSlot);
  const auto n = static_cast<std::size_t>(sys_->num_tasks());
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t adv = cycles * cycle_allocs[k];
    const Task& task = sys_->task(static_cast<std::int64_t>(k));
    PFAIR_REQUIRE(head_[k] + adv <= task.num_subtasks(),
                  "warp overruns task " << task.name());
    head_[k] += adv;
    remaining_ -= adv;
    if (head_[k] < task.num_subtasks()) {
      ready_at_[k] = ready_at_[k] + shift;
    }
  }
  // Uniform time shifts preserve heap order, so busy processors and
  // their completion events move in place.
  for (Proc& pr : procs_) {
    if (pr.busy) pr.busy_until = pr.busy_until + shift;
  }
  for (Completion& c : completions_) c.at = c.at + shift;
  now_ = now_ + shift;
  // Pending entries and queued ready entries name pre-warp seqs —
  // rebuild both from the shifted readiness instants.  At the (shifted)
  // boundary every readiness instant strictly before it has already
  // been drained; at or after it is still a pending event.
  const Time boundary =
      Time::slots(boundary_slot + cycles * cycle_slots);
  ready_q_.clear();
  pending_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const Task& task = sys_->task(static_cast<std::int64_t>(k));
    if (head_[k] >= task.num_subtasks()) continue;
    const SubtaskRef ref{static_cast<std::int32_t>(k),
                         static_cast<std::int32_t>(head_[k])};
    if (ready_at_[k] < boundary) {
      ready_q_.push(ref);
    } else {
      pending_.push_back(Pending{ready_at_[k], ref});
    }
  }
  std::make_heap(pending_.begin(), pending_.end(), kLaterPending);
}

std::vector<int> DvqSimulator::idle_processors() const {
  std::vector<int> out;
  for (std::size_t pi = 0; pi < procs_.size(); ++pi) {
    if (!procs_[pi].busy) out.push_back(static_cast<int>(pi));
  }
  return out;
}

}  // namespace pfair
