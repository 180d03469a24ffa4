#include "obs/audit.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace pfair {

namespace {

constexpr auto kLaterCritical = [](const auto& a, const auto& b) {
  return b.t_crit < a.t_crit;  // min-heap under std::push_heap/pop_heap
};

// The classical lag bounds assume a task whose fluid service starts at
// time 0 and whose subtasks are all eligible exactly at release.  A
// flyweight task's eligibility is its release unless it releases early
// (Task::synthesize), so only an early-releasing or materialized task
// needs the walk.
bool lag_meaningful(const Task& task) {
  if (task.kind() != TaskKind::kPeriodic) return false;
  if (task.phase() != 0) return false;
  if (task.window_table() != nullptr && !task.early_release()) return true;
  SubtaskCursor subs(task);
  for (std::int64_t s = 0; s < task.num_subtasks(); ++s) {
    const Subtask sub = subs.next();
    if (sub.eligible != sub.release) return false;
  }
  return true;
}

}  // namespace

std::string AuditFinding::str() const {
  std::ostringstream os;
  os << '[' << to_string(kind) << "] ";
  if (ref.valid()) os << ref << ' ';
  os << "at " << at << ": " << detail;
  return os.str();
}

InvariantAuditor::InvariantAuditor(const TaskSystem& sys, AuditOptions opts)
    : sys_(&sys),
      opts_(opts),
      expected_seq_(static_cast<std::size_t>(sys.num_tasks()), 0),
      prev_completion_(static_cast<std::size_t>(sys.num_tasks())),
      has_placement_(static_cast<std::size_t>(sys.num_tasks()), false),
      alloc_(static_cast<std::size_t>(sys.num_tasks()), 0),
      busy_until_(static_cast<std::size_t>(sys.processors())) {
  we_.reserve(static_cast<std::size_t>(sys.num_tasks()));
  wp_.reserve(static_cast<std::size_t>(sys.num_tasks()));
  bool all_meaningful = true;
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    we_.push_back(sys.task(k).weight().e);
    wp_.push_back(sys.task(k).weight().p);
    if (all_meaningful && !lag_meaningful(sys.task(k))) {
      all_meaningful = false;
    }
  }
  lag_enabled_ = opts_.lag == AuditOptions::Lag::kOn ||
                 (opts_.lag == AuditOptions::Lag::kAuto && all_meaningful);
}

TraceEventMask InvariantAuditor::event_mask() const {
  return trace_mask_of(TraceEventKind::kSlotBegin) |
         trace_mask_of(TraceEventKind::kEventBegin) |
         trace_mask_of(TraceEventKind::kPlace) |
         trace_mask_of(TraceEventKind::kDeadlineHit) |
         trace_mask_of(TraceEventKind::kDeadlineMiss);
}

const char* InvariantAuditor::model() const {
  switch (model_) {
    case Model::kSfq:
      return "sfq";
    case Model::kDvq:
      return "dvq";
    case Model::kUnknown:
      break;
  }
  return "?";
}

Time InvariantAuditor::allowance() const {
  if (opts_.tardiness_allowance.has_value()) {
    return *opts_.tardiness_allowance;
  }
  return model_ == Model::kDvq ? kQuantum : Time();
}

void InvariantAuditor::report(Violation::Kind kind, SubtaskRef ref, Time at,
                              std::string detail) {
  ++total_;
  if (registry_ != nullptr) {
    registry_->counter(audit_metrics::kFindings).add();
    registry_
        ->counter(std::string(audit_metrics::kFindings) + "." +
                  to_string(kind))
        .add();
  }
  AuditFinding f{kind, ref, at, std::move(detail)};
  if (downstream_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kAuditFinding;
    e.aux = static_cast<std::int32_t>(kind);
    e.at = at;
    e.subject = ref;
    downstream_->on_event(e);
  }
  if (callback_) callback_(f);
  if (findings_.size() < opts_.max_findings) {
    findings_.push_back(std::move(f));
  }
}

void InvariantAuditor::on_event(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kSlotBegin:
      if (model_ == Model::kUnknown) model_ = Model::kSfq;
      if (model_ == Model::kSfq) check_lag_upper(e.at.slot_floor());
      break;
    case TraceEventKind::kEventBegin:
      if (model_ == Model::kUnknown) model_ = Model::kDvq;
      break;
    case TraceEventKind::kPlace:
      handle_place(e);
      break;
    case TraceEventKind::kDeadlineHit:
    case TraceEventKind::kDeadlineMiss:
      handle_deadline(e);
      break;
    default:
      break;  // ready-set/compare/idle/... carry no audited state
  }
}

void InvariantAuditor::handle_place(const TraceEvent& e) {
  const SubtaskRef ref = e.subject;
  if (ref.task < 0 || ref.task >= sys_->num_tasks() || ref.seq < 0 ||
      ref.seq >= sys_->task(ref.task).num_subtasks()) {
    std::ostringstream os;
    os << "placement references a subtask outside the task system";
    report(Violation::Kind::kUnscheduled, ref, e.at, os.str());
    return;
  }
  const auto k = static_cast<std::size_t>(ref.task);
  const Subtask sub = sys_->subtask(ref);

  // Eligibility (Eq. (6)): never before e(T_i), in either model.
  if (e.at < Time::slots(sub.eligible)) {
    std::ostringstream os;
    os << "starts at " << e.at << " < e = " << sub.eligible;
    report(Violation::Kind::kBeforeEligible, ref, e.at, os.str());
  }

  // Sequence order within the task.
  if (ref.seq != expected_seq_[k]) {
    std::ostringstream os;
    os << "placed out of sequence (expected seq " << expected_seq_[k]
       << ")";
    report(Violation::Kind::kPrecedence, ref, e.at, os.str());
  }
  expected_seq_[k] = ref.seq + 1;

  // Completion instant: one quantum in the SFQ model, the charged cost
  // (place detail) in the DVQ model.
  const Time completion = model_ == Model::kDvq
                              ? e.at + Time::ticks(e.detail)
                              : e.at + kQuantum;

  // No intra-task parallelism: a subtask may not start before its
  // predecessor's quantum completes.
  if (has_placement_[k] && e.at < prev_completion_[k]) {
    std::ostringstream os;
    os << "starts at " << e.at << " before predecessor completes at "
       << prev_completion_[k];
    report(Violation::Kind::kIntraTaskParallel, ref, e.at, os.str());
  }
  prev_completion_[k] = completion;
  has_placement_[k] = true;

  // Processor occupancy: index in range and not double-booked.  In the
  // SFQ model processors are dense slot indices 0..M-1, so an over-full
  // slot necessarily spills to proc >= M and is caught here too.
  if (e.proc < 0 || static_cast<std::size_t>(e.proc) >= busy_until_.size()) {
    std::ostringstream os;
    os << "processor " << e.proc << " outside 0.." << sys_->processors() - 1;
    report(Violation::Kind::kOverloadedSlot, ref, e.at, os.str());
  } else {
    const auto p = static_cast<std::size_t>(e.proc);
    if (busy_until_[p] > e.at) {
      std::ostringstream os;
      os << "processor " << e.proc << " busy until " << busy_until_[p];
      report(Violation::Kind::kOverloadedSlot, ref, e.at, os.str());
    }
    busy_until_[p] = completion;
  }

  // Lag lower bound: allocation may not run ahead of the fluid rate.
  // lag(t) = (e/p)*t - alloc <= -1  <=>  e*t + p <= alloc*p, all int64.
  ++alloc_[k];
  if (lag_enabled_ && model_ != Model::kDvq) {
    const std::int64_t boundary = e.at.slot_floor() + 1;
    if (we_[k] * boundary + wp_[k] <= alloc_[k] * wp_[k]) {
      const Rational lag(we_[k] * boundary - alloc_[k] * wp_[k], wp_[k]);
      std::ostringstream os;
      os << "lag = " << lag.str() << " <= -1 at t = " << boundary
         << " (over-allocated)";
      report(Violation::Kind::kLagBound, ref, e.at, os.str());
    }
  }
}

void InvariantAuditor::handle_deadline(const TraceEvent& e) {
  if (e.detail > allowance().raw_ticks()) {
    std::ostringstream os;
    os << "tardiness " << e.detail << " ticks > allowance "
       << allowance().raw_ticks() << " ticks";
    report(Violation::Kind::kDeadlineMiss, e.subject, e.at, os.str());
  }
}

std::int64_t InvariantAuditor::lag_critical_slot(std::int32_t task,
                                                 std::int64_t alloc) const {
  // First boundary t with lag(T, t) = (e/p)*t - alloc >= 1, i.e.
  // t >= (alloc + 1) * p / e, rounded up in integers.
  const auto k = static_cast<std::size_t>(task);
  return ((alloc + 1) * wp_[k] + we_[k] - 1) / we_[k];
}

void InvariantAuditor::push_lag_entry(std::int32_t task, std::int64_t t_crit,
                                      std::int64_t alloc) {
  lag_heap_.push_back(LagEntry{t_crit, task, alloc});
  std::push_heap(lag_heap_.begin(), lag_heap_.end(), kLaterCritical);
}

void InvariantAuditor::check_lag_upper(std::int64_t slot) {
  if (!lag_enabled_) return;
  if (!lag_seeded_) {
    lag_seeded_ = true;
    for (std::int32_t k = 0; k < sys_->num_tasks(); ++k) {
      if (sys_->task(k).num_subtasks() == 0) continue;
      if (we_[static_cast<std::size_t>(k)] == 0) continue;
      push_lag_entry(k, lag_critical_slot(k, 0), 0);
    }
  }
  while (!lag_heap_.empty() && lag_heap_.front().t_crit <= slot) {
    const LagEntry entry = lag_heap_.front();
    std::pop_heap(lag_heap_.begin(), lag_heap_.end(), kLaterCritical);
    lag_heap_.pop_back();
    const auto k = static_cast<std::size_t>(entry.task);
    if (alloc_[k] >= sys_->task(entry.task).num_subtasks()) {
      continue;  // task exhausted its subtasks; fluid comparison is over
    }
    if (entry.alloc != alloc_[k]) {
      // Stale: the task was served since the entry was pushed.  Its
      // critical time moved right; re-arm.
      push_lag_entry(entry.task, lag_critical_slot(entry.task, alloc_[k]),
                     alloc_[k]);
      continue;
    }
    const Rational lag(we_[k] * slot - alloc_[k] * wp_[k], wp_[k]);
    std::ostringstream os;
    os << "lag = " << lag.str() << " >= 1 at t = " << slot
       << " (under-served)";
    report(Violation::Kind::kLagBound,
           SubtaskRef{entry.task,
                      static_cast<std::int32_t>(expected_seq_[k])},
           Time::slots(slot), os.str());
    // Re-arm past this boundary so one starving task reports at its
    // next critical boundary, not every slot.
    push_lag_entry(entry.task,
                   std::max(lag_critical_slot(entry.task, alloc_[k] + 1),
                            slot + 1),
                   alloc_[k]);
  }
}

}  // namespace pfair
