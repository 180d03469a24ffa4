#include "tasks/task.hpp"

#include <ostream>
#include <utility>

#include "tasks/group_deadline.hpp"
#include "tasks/windows.hpp"

namespace pfair {

std::ostream& operator<<(std::ostream& os, const SubtaskRef& ref) {
  return os << "(task " << ref.task << ", seq " << ref.seq << ")";
}

const char* to_string(TaskKind k) {
  switch (k) {
    case TaskKind::kPeriodic:
      return "periodic";
    case TaskKind::kSporadic:
      return "sporadic";
    case TaskKind::kIntraSporadic:
      return "intra-sporadic";
    case TaskKind::kGeneralizedIS:
      return "generalized-IS";
  }
  return "?";
}

namespace {

/// Fills the derived fields of a subtask from (weight, index, theta).
Subtask make_subtask(const Weight& w, std::int64_t index, std::int64_t theta,
                     std::int64_t eligible_or_minus1) {
  Subtask s;
  s.index = index;
  s.theta = theta;
  s.release = theta + pseudo_release(w, index);
  s.deadline = theta + pseudo_deadline(w, index);
  s.eligible = eligible_or_minus1 < 0 ? s.release : eligible_or_minus1;
  s.bbit = b_bit(w, index);
  const std::int64_t gd = group_deadline(w, index);
  s.group_deadline = gd == 0 ? 0 : theta + gd;
  return s;
}

}  // namespace

Task::Task(std::string name, Weight w, TaskKind kind,
           std::vector<Subtask> subtasks)
    : name_(std::move(name)),
      weight_(w),
      kind_(kind),
      subtasks_(std::move(subtasks)) {
  validate();
}

Task::Task(std::string name, Weight w, TaskKind kind, std::int64_t phase,
           std::int64_t count, std::shared_ptr<const WindowTable> table,
           bool early_release)
    : name_(std::move(name)),
      weight_(w),
      kind_(kind),
      table_(std::move(table)),
      phase_(phase),
      count_(count),
      early_release_(early_release) {
  PFAIR_ASSERT(table_ != nullptr && count_ >= 0 && phase_ >= 0);
}

Subtask Task::synthesize(std::int64_t seq) const {
  const WindowTable& t = *table_;
  const std::int64_t e = t.e();
  const std::int64_t q = seq / e;
  const std::int64_t rem = seq % e;  // subtask index q*e + rem + 1
  const std::int64_t shift = phase_ + q * t.p();
  Subtask s;
  s.index = seq + 1;
  s.theta = phase_;
  s.release = shift + t.release_at(rem);
  s.deadline = shift + t.deadline_at(rem);
  s.bbit = t.bbit_at(rem);
  s.group_deadline = t.heavy() ? shift + t.group_deadline_at(rem) : 0;
  // Early release: every subtask of job j (delimited by the *raw* (e, p)
  // pair) is eligible at the job's release theta + (j-1)p.
  s.eligible = early_release_
                   ? phase_ + (seq / weight_.e) * weight_.p
                   : s.release;
  return s;
}

std::int64_t Task::eligible_at(std::int64_t seq) const {
  PFAIR_REQUIRE(seq >= 0 && seq < num_subtasks(),
                "subtask seq " << seq << " out of range for task " << name_);
  if (table_ == nullptr) {
    return subtasks_[static_cast<std::size_t>(seq)].eligible;
  }
  if (early_release_) return phase_ + (seq / weight_.e) * weight_.p;
  const WindowTable& t = *table_;
  return phase_ + (seq / t.e()) * t.p() + t.release_at(seq % t.e());
}

void Task::validate() const {
  const Subtask* prev = nullptr;
  for (const Subtask& s : subtasks_) {
    PFAIR_REQUIRE(s.index >= 1, "task " << name_ << ": subtask index < 1");
    PFAIR_REQUIRE(s.eligible <= s.release,
                  "task " << name_ << ", subtask " << s.index
                          << ": e > r violates Eq. (6)");
    if (prev != nullptr) {
      PFAIR_REQUIRE(s.index > prev->index,
                    "task " << name_ << ": subtask indices not increasing");
      PFAIR_REQUIRE(s.theta >= prev->theta,
                    "task " << name_ << ", subtask " << s.index
                            << ": offsets decrease, violates Eq. (5)");
      PFAIR_REQUIRE(prev->eligible <= s.eligible,
                    "task " << name_ << ", subtask " << s.index
                            << ": eligibility times decrease, violates"
                               " Eq. (6)");
      // GIS release rule (Sec. 2): r(T_k) - r(T_i) >= floor((k-1)/wt) -
      // floor((i-1)/wt).  With r = theta + floor(.) this is exactly the
      // offset condition already checked; we assert the composite form too
      // as a belt-and-braces invariant.
      const std::int64_t min_gap = pseudo_release(weight_, s.index) -
                                   pseudo_release(weight_, prev->index);
      PFAIR_ASSERT_MSG(s.release - prev->release >= min_gap,
                       "task " << name_ << ": GIS release rule violated at"
                               << " subtask " << s.index);
    }
    prev = &s;
  }
}

Task Task::periodic(std::string name, Weight w, std::int64_t horizon,
                    WindowTableCache* cache) {
  return periodic_phased(std::move(name), w, 0, horizon, cache);
}

Task Task::periodic_phased(std::string name, Weight w, std::int64_t phase,
                           std::int64_t horizon, WindowTableCache* cache) {
  return periodic_phased(
      std::move(name), w, phase, horizon,
      (cache != nullptr ? *cache : WindowTableCache::global()).get(w));
}

Task Task::periodic_phased(std::string name, Weight w, std::int64_t phase,
                           std::int64_t horizon,
                           std::shared_ptr<const WindowTable> table) {
  PFAIR_REQUIRE(phase >= 0, "phase must be >= 0");
  PFAIR_REQUIRE(horizon >= phase, "horizon must cover the phase");
  PFAIR_REQUIRE(table != nullptr &&
                    static_cast<__int128>(table->e()) * w.p ==
                        static_cast<__int128>(table->p()) * w.e,
                "window table does not match weight " << w.str());
  const std::int64_t n = subtasks_before(w, horizon - phase);
  return Task(std::move(name), w,
              phase == 0 ? TaskKind::kPeriodic : TaskKind::kSporadic, phase,
              n, std::move(table), /*early_release=*/false);
}

Task Task::periodic_phased_eager(std::string name, Weight w,
                                 std::int64_t phase, std::int64_t horizon) {
  PFAIR_REQUIRE(phase >= 0, "phase must be >= 0");
  PFAIR_REQUIRE(horizon >= phase, "horizon must cover the phase");
  const std::int64_t n = subtasks_before(w, horizon - phase);
  std::vector<Subtask> subs;
  subs.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 1; i <= n; ++i) {
    subs.push_back(make_subtask(w, i, phase, -1));
  }
  return Task(std::move(name), w,
              phase == 0 ? TaskKind::kPeriodic : TaskKind::kSporadic,
              std::move(subs));
}

Task Task::intra_sporadic(std::string name, Weight w,
                          const std::vector<std::int64_t>& offsets,
                          std::int64_t count) {
  PFAIR_REQUIRE(count >= 0, "count must be >= 0");
  std::vector<Subtask> subs;
  subs.reserve(static_cast<std::size_t>(count));
  std::int64_t theta = 0;
  for (std::int64_t i = 1; i <= count; ++i) {
    const auto oi = static_cast<std::size_t>(i - 1);
    if (oi < offsets.size()) theta = offsets[oi];
    subs.push_back(make_subtask(w, i, theta, -1));
  }
  return Task(std::move(name), w, TaskKind::kIntraSporadic, std::move(subs));
}

Task Task::gis(std::string name, Weight w,
               const std::vector<SubtaskSpec>& specs) {
  std::vector<Subtask> subs;
  subs.reserve(specs.size());
  for (const SubtaskSpec& sp : specs) {
    subs.push_back(make_subtask(w, sp.index, sp.theta, sp.eligible));
  }
  return Task(std::move(name), w, TaskKind::kGeneralizedIS, std::move(subs));
}

Task Task::with_early_release() const {
  if (table_ != nullptr) {
    return Task(name_, weight_, kind_, phase_, count_, table_,
                /*early_release=*/true);
  }
  std::vector<Subtask> subs = subtasks_;
  for (Subtask& s : subs) {
    // Job number j of subtask index i: j = ceil(i / e).
    const std::int64_t job = (s.index + weight_.e - 1) / weight_.e;
    const std::int64_t job_release = s.theta + (job - 1) * weight_.p;
    PFAIR_ASSERT(job_release <= s.release);
    s.eligible = job_release;
  }
  return Task(name_, weight_, kind_, std::move(subs));
}

std::int64_t Task::max_deadline() const {
  const std::int64_t n = num_subtasks();
  if (n == 0) return 0;
  if (table_ != nullptr) {
    // Deadlines are strictly increasing in the index (Eq. (2)).
    return synthesize(n - 1).deadline;
  }
  std::int64_t m = 0;
  for (const Subtask& s : subtasks_) m = std::max(m, s.deadline);
  return m;
}

}  // namespace pfair
