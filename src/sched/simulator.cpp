#include "sched/simulator.hpp"

#include <algorithm>

#include "core/simd.hpp"
#include "obs/prof.hpp"
#include "obs/quality.hpp"
#include "tasks/window_table.hpp"

namespace pfair {

SfqSimulator::SfqSimulator(const TaskSystem& sys, Policy policy, Arena* arena,
                           SlotSchedule* out)
    : sys_(&sys),
      order_(sys, policy),
      keys_(sys, policy, arena),
      ready_q_(order_, keys_, arena),
      hot_(arena),
      pos_(arena),
      bucket_head_(arena),
      chunks_(arena),
      scratch_picks_(arena),
      warp_base_(arena),
      warp_step_(arena),
      warp_job_(arena),
      warp_key_(arena),
      warp_task_(arena),
      remaining_(sys.total_subtasks()),
      packed_(keys_.packable()) {
  if (out != nullptr) {
    PFAIR_REQUIRE(out->num_tasks() == sys.num_tasks() &&
                      out->placed_count() == 0 &&
                      out->total() == sys.total_subtasks(),
                  "external schedule does not match the task system");
    sched_ = out;
  } else {
    owned_sched_.emplace(sys);
    sched_ = &*owned_sched_;
  }
  cells_ = sched_->cells_.get();

  const std::int64_t n = sys.num_tasks();
  hot_.resize(static_cast<std::size_t>(n));
  ready_q_.reserve(static_cast<std::size_t>(n));

  // Size the position table (one pass), then fill it (second pass).
  std::size_t positions = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Task& task = sys.task(k);
    const std::int64_t cnt = task.num_subtasks();
    if (cnt == 0) continue;
    std::int64_t period = cnt;
    if (const WindowTable* wt = task.window_table()) {
      period = task.early_release() ? task.weight().e : wt->e();
    }
    positions += static_cast<std::size_t>(std::min(period, cnt));
  }
  pos_.resize(positions);

  positions = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Task& task = sys.task(k);
    const std::int64_t cnt = task.num_subtasks();
    HotTask& h = hot_[static_cast<std::size_t>(k)];
    h.next_key = 0;
    h.last_slot = -1;
    h.elig_p = 0;
    h.cell_base = sys.subtask_offset(k);
    h.head = 0;
    h.count = static_cast<std::int32_t>(cnt);
    h.rem = 0;
    h.job = 0;
    h.e = 1;
    h.pos_off = static_cast<std::int32_t>(positions);
    if (cnt == 0) continue;

    // The position period: the smallest stride that makes both the key
    // and the eligibility affine in the job index (see PosRec).  When
    // it is not smaller than the subtask count, job stays 0 for every
    // seq and the table is truncated to one record per subtask.
    const WindowTable* wt = task.window_table();
    std::int64_t e_red = 0;
    std::int64_t e_pos = cnt;
    if (wt != nullptr) {
      e_red = wt->e();
      const std::int64_t period =
          task.early_release() ? task.weight().e : e_red;
      e_pos = std::min(period, cnt);
      if (e_pos < cnt) h.elig_p = (e_pos / e_red) * wt->p();
    }
    h.e = static_cast<std::int32_t>(e_pos);

    const std::size_t pk_off = packed_ ? keys_.task_offset(k) : 0;
    const std::uint64_t* pk_step = packed_ ? keys_.step_data() : nullptr;
    for (std::int64_t r = 0; r < e_pos; ++r) {
      PosRec& pr = pos_[positions + static_cast<std::size_t>(r)];
      pr.elig_base = task.eligible_at(r);
      pr.key_base = 0;
      pr.key_step = 0;
      if (packed_) {
        pr.key_base = keys_.order_key(SubtaskRef{
            static_cast<std::int32_t>(k), static_cast<std::int32_t>(r)});
        if (e_pos < cnt && wt != nullptr) {
          // key(seq = j * e_pos + r) steps by (e_pos / e_red) times the
          // reduced-period step each job (e_pos is a multiple of e_red).
          pr.key_step =
              static_cast<std::uint64_t>(e_pos / e_red) *
              pk_step[pk_off + static_cast<std::size_t>(r % e_red)];
        }
      }
    }
    h.next_key = pos_[positions].key_base;  // head = 0: job 0, rem 0
    mark_available(static_cast<std::int32_t>(k),
                   std::max<std::int64_t>(pos_[positions].elig_base, 0));
    positions += static_cast<std::size_t>(e_pos);
  }
}

SlotSchedule SfqSimulator::take_schedule() && {
  PFAIR_REQUIRE(owned_sched_.has_value(),
                "take_schedule with an externally owned schedule");
  return std::move(*owned_sched_);
}

void SfqSimulator::mark_available(std::int32_t task, std::int64_t slot) {
  const auto s = static_cast<std::size_t>(slot - cal_base_);
  if (s >= bucket_head_.size()) {
    const std::size_t old = bucket_head_.size();
    const std::size_t grown = std::max(s + 1, old * 2);
    bucket_head_.resize(grown);
    for (std::size_t i = old; i < grown; ++i) bucket_head_[i] = -1;
  }
  std::int32_t c = bucket_head_[s];
  if (c < 0 || chunks_[static_cast<std::size_t>(c)].count == BucketChunk::kCap) {
    std::int32_t fresh;
    if (free_chunk_ >= 0) {
      fresh = free_chunk_;
      free_chunk_ = chunks_[static_cast<std::size_t>(fresh)].next;
    } else {
      fresh = static_cast<std::int32_t>(chunks_.size());
      chunks_.push_back(BucketChunk{});  // geometric growth
    }
    BucketChunk& ch = chunks_[static_cast<std::size_t>(fresh)];
    ch.count = 0;
    ch.next = c;
    bucket_head_[s] = fresh;
    c = fresh;
  }
  BucketChunk& ch = chunks_[static_cast<std::size_t>(c)];
  ch.tasks[ch.count++] = task;
}

void SfqSimulator::drain_calendar() {
  const HotTask* hot = hot_.data();
  while (drained_upto_ < now_) {
    ++drained_upto_;
    const auto s = static_cast<std::size_t>(drained_upto_ - cal_base_);
    if (s >= bucket_head_.size()) continue;
    std::int32_t c = bucket_head_[s];
    if (c < 0) continue;
    bucket_head_[s] = -1;
    // A bucket entry always names its task's *current* head: the entry
    // was created when the predecessor was placed (or at construction),
    // and the head cannot be scheduled again before this drain.
    while (c >= 0) {
      BucketChunk& ch = chunks_[static_cast<std::size_t>(c)];
      if (ch.next >= 0) {
        simd::prefetch(&chunks_[static_cast<std::size_t>(ch.next)]);
      }
      for (std::int32_t i = 0; i < ch.count; ++i) {
        simd::prefetch(&hot[ch.tasks[i]]);
      }
      if (packed_) {
        for (std::int32_t i = 0; i < ch.count; ++i) {
          const std::int32_t k = ch.tasks[i];
          const HotTask& h = hot[static_cast<std::size_t>(k)];
          ready_q_.push_key(h.next_key, k, h.head);
        }
      } else {
        for (std::int32_t i = 0; i < ch.count; ++i) {
          const std::int32_t k = ch.tasks[i];
          ready_q_.push(SubtaskRef{k, hot[static_cast<std::size_t>(k)].head});
        }
      }
      const std::int32_t next = ch.next;
      ch.next = free_chunk_;
      free_chunk_ = c;
      c = next;
    }
  }
}

void SfqSimulator::place_fast(const HotTask& h, std::int32_t seq, int proc) {
  SlotSchedule::Cell& c =
      cells_[static_cast<std::size_t>(h.cell_base + seq)];
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
  const std::int32_t head = ++h.head;
  if (head >= h.count) return;
  std::int32_t rem = h.rem + 1;
  std::int32_t job = h.job;
  if (rem == h.e) {
    rem = 0;
    ++job;
  }
  h.rem = rem;
  h.job = job;
  const PosRec& pr =
      pos_[static_cast<std::size_t>(h.pos_off) + static_cast<std::size_t>(rem)];
  h.next_key = pr.key_base + static_cast<std::uint64_t>(job) * pr.key_step;
  // The successor becomes available at the later of its eligibility
  // time and the slot after its predecessor's quantum.
  const std::int64_t elig =
      pr.elig_base + static_cast<std::int64_t>(job) * h.elig_p;
  mark_available(ref.task, std::max<std::int64_t>(elig, now_ + 1));
}

std::vector<SubtaskRef> SfqSimulator::ready() const {
  std::vector<SubtaskRef> out;
  const auto n = static_cast<std::size_t>(sys_->num_tasks());
  for (std::size_t k = 0; k < n; ++k) {
    const HotTask& h = hot_[k];
    if (h.head >= h.count) continue;
    // Ready at now(): eligible, predecessor (if any) completed by now().
    const PosRec& pr = pos_[static_cast<std::size_t>(h.pos_off) +
                            static_cast<std::size_t>(h.rem)];
    if (pr.elig_base + static_cast<std::int64_t>(h.job) * h.elig_p > now_) {
      continue;
    }
    if (h.head > 0 && h.last_slot >= now_) continue;
    out.push_back(SubtaskRef{static_cast<std::int32_t>(k), h.head});
  }
  return out;
}

std::vector<SubtaskRef> SfqSimulator::step() {
  scratch_picks_.clear();
  step_into(scratch_picks_);
  return std::vector<SubtaskRef>(scratch_picks_.begin(), scratch_picks_.end());
}

void SfqSimulator::step_into(ArenaVector<SubtaskRef>& picks) {
  {
    PFAIR_PROF_SPAN(kCalendarWalk);
    drain_calendar();
  }
  {
    PFAIR_PROF_SPAN(kReadyHeap);
    if (probe_.enabled()) [[unlikely]] {
      step_fast<true>(picks);
    } else {
      step_fast<false>(picks);
    }
  }
  if (quality_ != nullptr) [[unlikely]] {
    note_quality(picks.data(), picks.size());
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
  if (quality_ == nullptr) {
    metric_quality_ = QualityCounters{};
    start_quality(&metric_quality_);
  }
}

void SfqSimulator::detach_metrics() {
  probe_.detach_metrics();
  if (quality_ == &metric_quality_) start_quality(nullptr);
}

void SfqSimulator::set_quality(QualityCounters* q) {
  PFAIR_REQUIRE(q == nullptr || now_ == 0,
                "attach quality counters before the first step");
  if (q == nullptr && probe_.metering()) {
    metric_quality_ = QualityCounters{};
    q = &metric_quality_;
  }
  start_quality(q);
}

void SfqSimulator::start_quality(QualityCounters* q) {
  quality_ = q;
  prev_tasks_.clear();
  if (q == nullptr) return;
  const auto procs = static_cast<std::size_t>(sys_->processors());
  q->resize_procs(procs);
  proc_task_.assign(procs, -1);
  if (now_ == 0) return;
  // Started mid-run (metrics attached late): last slot's occupants are
  // the preemption candidates of the next step.
  for (std::size_t k = 0; k < hot_.size(); ++k) {
    if (hot_[k].last_slot == now_ - 1) {
      prev_tasks_.push_back(static_cast<std::int32_t>(k));
    }
  }
}

#if defined(__GNUC__)
__attribute__((noinline))
#endif
void SfqSimulator::note_quality(const SubtaskRef* picks, std::size_t count) {
  const std::int64_t t = now_ - 1;  // the slot just decided
  QualityCounters& q = *quality_;
  ++q.decision_points;
  const auto procs = static_cast<std::size_t>(sys_->processors());
  const auto idle = static_cast<std::int64_t>(procs - count);
  std::int64_t migrations = 0;
  std::int64_t preemptions = 0;
  for (std::size_t r = 0; r < count; ++r) {
    const SubtaskRef ref = picks[r];
    if (ref.seq > 0) {
      const int prev =
          sched_->placement(SubtaskRef{ref.task, ref.seq - 1}).proc;
      if (prev >= 0 && prev != static_cast<int>(r)) ++migrations;
    }
    std::int32_t& occupant = proc_task_[r];
    if (occupant != ref.task) {
      if (occupant >= 0) {
        ++q.context_switches;
        ++q.per_proc_switches[r];
      }
      occupant = ref.task;
    }
  }
  // A task that held a processor in the previous slot, is still ready
  // here (eligible, work left) and was not placed, was preempted.  Only
  // last slot's picks are candidates; a placement this slot would have
  // advanced last_slot to t.
  for (const std::int32_t k : prev_tasks_) {
    const HotTask& h = hot_[static_cast<std::size_t>(k)];
    if (h.last_slot != t - 1) continue;
    if (h.head >= h.count) continue;
    const PosRec& pr = pos_[static_cast<std::size_t>(h.pos_off) +
                            static_cast<std::size_t>(h.rem)];
    if (pr.elig_base + static_cast<std::int64_t>(h.job) * h.elig_p > t) {
      continue;
    }
    ++preemptions;
  }
  prev_tasks_.clear();
  for (std::size_t r = 0; r < count; ++r) prev_tasks_.push_back(picks[r].task);
  q.idle_slots += idle;
  q.migrations += migrations;
  q.preemptions += preemptions;
  probe_.count_quality(preemptions, migrations, idle);
}

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
    if (packed_) {
      simd::prefetch(&hot[static_cast<std::size_t>(ready_q_.peek_task())]);
    }
    // Every queued entry names its task's current head: entries leave
    // the queue only by being popped here (warp rebuilds it outright).
    const SubtaskRef ref = ready_q_.pop_best();
    const int proc = static_cast<int>(picks.size());
    place_fast(hot[static_cast<std::size_t>(ref.task)], ref.seq, proc);
    if constexpr (kProbed) note_placement(at, ref, proc);
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
void SfqSimulator::note_placement(Time at, SubtaskRef ref, int proc) {
  probe_.place(at, ref, proc, now_);
  if (ref.seq > 0 && probe_.tracing()) {
    const int prev = sched_->placement(SubtaskRef{ref.task, ref.seq - 1}).proc;
    if (prev >= 0 && prev != proc) probe_.migrate(at, ref, prev, proc);
  }
  // Called before commit_placement: the hot record still holds the
  // placed subtask's key, which encodes its deadline.
  const std::int64_t deadline =
      packed_ ? keys_.deadline_of(hot_[static_cast<std::size_t>(ref.task)].next_key)
              : sys_->subtask(ref).deadline;
  const std::int64_t tard_slots = std::max<std::int64_t>(0, now_ + 1 - deadline);
  probe_.deadline(at, ref, tard_slots * kTicksPerSlot);
}

void SfqSimulator::run_until(std::int64_t slot_limit) {
  const SchedProbe::Batch batch(probe_);
  while (!done() && now_ < slot_limit) {
    scratch_picks_.clear();
    step_into(scratch_picks_);
  }
}

void SfqSimulator::warp(std::int64_t cycles, std::int64_t cycle_slots,
                        const std::vector<std::int64_t>& cycle_allocs) {
  PFAIR_REQUIRE(!probe_.enabled(), "warp would skip trace events and metrics");
  PFAIR_REQUIRE(quality_ == nullptr, "warp would skip quality accounting");
  PFAIR_REQUIRE(cycles >= 0 && cycle_slots > 0, "bad warp parameters");
  if (cycles == 0) return;
  const std::int64_t shift = cycles * cycle_slots;
  const auto n = static_cast<std::size_t>(sys_->num_tasks());
  warp_task_.clear();
  warp_base_.clear();
  warp_step_.clear();
  warp_job_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    HotTask& h = hot_[k];
    const std::int64_t adv = cycles * cycle_allocs[k];
    PFAIR_REQUIRE(h.head + adv <= h.count,
                  "warp overruns task "
                      << sys_->task(static_cast<std::int64_t>(k)).name());
    h.head = static_cast<std::int32_t>(h.head + adv);
    remaining_ -= adv;
    // The task's most recent quantum moved forward with the cycle; a
    // task idle through the whole cycle keeps its (pre-t0) last slot.
    if (adv > 0) h.last_slot += shift;
    if (h.head >= h.count) continue;
    // Re-derive the in-period cursor (the one place a division is paid)
    // and queue the head key for the SIMD batch recompute below.
    h.job = h.head / h.e;
    h.rem = h.head % h.e;
    if (packed_) {
      const PosRec& pr = pos_[static_cast<std::size_t>(h.pos_off) +
                              static_cast<std::size_t>(h.rem)];
      warp_task_.push_back(static_cast<std::int32_t>(k));
      warp_base_.push_back(pr.key_base);
      warp_step_.push_back(pr.key_step);
      warp_job_.push_back(static_cast<std::uint64_t>(h.job));
    }
  }
  now_ += shift;
  if (!warp_task_.empty()) {
    warp_key_.resize(warp_task_.size());
    simd::affine_keys(warp_base_.data(), warp_step_.data(), warp_job_.data(),
                      warp_key_.data(), warp_task_.size());
    for (std::size_t i = 0; i < warp_task_.size(); ++i) {
      hot_[static_cast<std::size_t>(warp_task_[i])].next_key = warp_key_[i];
    }
  }
  // Rebuild the availability structures: every queued or bucketed entry
  // names a pre-warp head seq, so drop them all and re-derive each
  // task's availability from the counters (exactly as the constructor
  // and commit_placement would have).
  // The calendar restarts at the new now_: indexing it by absolute slot
  // would make the first post-warp entry grow it over every skipped slot.
  ready_q_.clear();
  bucket_head_.clear();
  cal_base_ = now_;
  chunks_.clear();
  free_chunk_ = -1;
  drained_upto_ = now_ - 1;
  for (std::size_t k = 0; k < n; ++k) {
    const HotTask& h = hot_[k];
    if (h.head >= h.count) continue;
    const PosRec& pr = pos_[static_cast<std::size_t>(h.pos_off) +
                            static_cast<std::size_t>(h.rem)];
    const std::int64_t elig =
        pr.elig_base + static_cast<std::int64_t>(h.job) * h.elig_p;
    const std::int64_t avail =
        h.head == 0 ? std::max<std::int64_t>(elig, 0)
                    : std::max<std::int64_t>(elig, h.last_slot + 1);
    mark_available(static_cast<std::int32_t>(k),
                   std::max<std::int64_t>(avail, now_));
  }
}

Rational SfqSimulator::lag_of(std::int64_t task) const {
  const Rational w = sys_->task(task).weight().value();
  return w * Rational(now_) -
         Rational(hot_[static_cast<std::size_t>(task)].head);
}

}  // namespace pfair
