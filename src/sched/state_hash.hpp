// Exact canonical fingerprints of scheduler state at slot boundaries —
// the detection half of steady-state cycle fast-forward.
//
// A deterministic Pfair policy on a synchronous periodic system is a
// function of a finite state: at a slot boundary t, the next decision
// depends only on, per task, (a) where the head subtask sits inside the
// task's window pattern (its sequence position mod the *raw* job length
// e, plus the release anchor relative to t), (b) when that head becomes
// available relative to t, and (c) the lag numerator (which fixes the
// number of whole periods consumed).  Priorities are static per subtask
// and shift uniformly by one period per job, so two boundaries with
// equal records make byte-identical decisions forever after.
//
// `StateFingerprint` captures exactly those records in canonical form
// (everything relative to t, availability clamped at t — a head already
// in the ready heap and a head whose calendar bucket is drained this
// very slot are behaviorally identical under SFQ).  The 64-bit hash is
// only a fast table probe; equality — `same_state` — always compares
// the full record vectors, so detection is collision-proof.  The DVQ
// model (dvq/dvq_scheduler.cpp) snapshots into the same fingerprint:
// the same records, readiness in exact ticks instead of clamped slots,
// plus each processor's remaining busy time.
//
// Fingerprints are exact only for zero-phase periodic task systems
// (flyweight or eager; early release allowed): `fingerprintable` gates
// that, and `fingerprint_period` gives the hyperperiod H = lcm of the
// raw periods.  Release anchors can only agree at boundaries that are
// congruent mod every task's period, so recurrence is probed at
// multiples of H alone — O(n) bookkeeping per H simulated slots.
#pragma once

#include <cstdint>
#include <vector>

#include "tasks/task_system.hpp"

namespace pfair {

class SfqSimulator;
class SlotSchedule;

/// Canonical decision-relevant state of one task at a slot boundary t,
/// expressed relative to t.  A task whose subtask sequence is exhausted
/// holds the sentinel record (rem == kFinished, avail_rel == 0).
struct TaskStateRecord {
  static constexpr std::int64_t kFinished = -1;

  std::int64_t rem = 0;        ///< head seq mod raw e (kFinished if done)
  std::int64_t anchor = 0;     ///< r(head) - t, slots
  /// When the head becomes available, relative to t.  SFQ: max(0,
  /// availability slot - t), in slots.  DVQ: ready time - t in exact
  /// ticks while the head waits for it (a head ready at exactly t fires
  /// a decision event at t), or -1 once the head is in the ready queue
  /// (queue order depends only on static priorities, never on when a
  /// head joined).
  std::int64_t avail_rel = 0;
  std::int64_t lag_num = 0;    ///< e_raw * t - allocated * p_raw

  friend bool operator==(const TaskStateRecord&,
                         const TaskStateRecord&) = default;
};

/// Full simulator state at boundary `at`: per-task records, the DVQ
/// model's per-processor state, and a mixing hash for cheap table
/// lookups.
struct StateFingerprint {
  std::uint64_t hash = 0;
  std::int64_t at = 0;
  std::vector<TaskStateRecord> records;
  /// DVQ only (empty for SFQ, whose processors carry no state across a
  /// boundary): each processor's remaining busy ticks past `at`, -1 when
  /// idle.
  std::vector<std::int64_t> procs;

  /// Collision-proof equality: hash first (fast reject), then the full
  /// record and processor vectors.
  [[nodiscard]] bool same_state(const StateFingerprint& o) const {
    return hash == o.hash && records == o.records && procs == o.procs;
  }
};

/// True iff exact fingerprints exist for `sys`: every task is a
/// zero-phase periodic task (window pattern strictly periodic in the
/// subtask sequence; early release preserves this).  IS/GIS tasks and
/// phased systems are rejected — their release patterns carry state the
/// records cannot normalize away.
[[nodiscard]] bool fingerprintable(const TaskSystem& sys);

/// The hyperperiod H = lcm of raw task periods — the only candidate
/// recurrence stride (see header note).  Returns 0 if the system is not
/// fingerprintable or H exceeds 2^40 slots.
[[nodiscard]] std::int64_t fingerprint_period(const TaskSystem& sys);

/// Snapshot of a live (quiescent, slot-boundary) SFQ simulator.
[[nodiscard]] StateFingerprint sfq_state_fingerprint(const SfqSimulator& sim);

/// Reconstructs boundary fingerprints from a *finished* schedule — the
/// offline counterpart used by the generalized periodicity check.  Heads
/// and allocation counts are recovered by counting placements before t;
/// availability from the predecessor's slot, exactly as the simulator
/// derives it.  Boundaries must be queried in nondecreasing order.
class ScheduleStateScanner {
 public:
  ScheduleStateScanner(const TaskSystem& sys, const SlotSchedule& sched);

  /// False if a task's scheduled slots are not strictly increasing in
  /// seq, or a scheduled subtask follows an unscheduled one — then
  /// fingerprints are meaningless and `at` must not be called.  A
  /// contiguous unscheduled *tail* (horizon-limited run) is fine.
  [[nodiscard]] bool ok() const { return ok_; }

  /// Fingerprint at slot boundary `t` (>= any previous call's t).  With
  /// a truncated schedule, `t` must not exceed the covered horizon —
  /// every placement below the queried boundary must be present.
  [[nodiscard]] StateFingerprint at(std::int64_t t);

 private:
  const TaskSystem* sys_;
  std::vector<std::vector<std::int64_t>> slots_;  // [task][seq] -> slot
  std::vector<std::int64_t> head_;                // advanced with t
  std::int64_t last_t_ = 0;
  bool ok_ = true;
};

namespace detail {
/// One task's record at boundary t from its head seq, with avail_rel
/// left 0 for the model to fill in (the sentinel record if done).
[[nodiscard]] TaskStateRecord position_record(const Task& task,
                                              std::int64_t head,
                                              std::int64_t t);
/// One task's SFQ record from its raw counters; shared by the online
/// and offline paths so both produce byte-identical fingerprints.
[[nodiscard]] TaskStateRecord task_state_record(const Task& task,
                                                std::int64_t head,
                                                std::int64_t last_slot,
                                                std::int64_t t);
/// Hash over the records and processor states (splitmix64 mixing).
[[nodiscard]] std::uint64_t hash_state(const StateFingerprint& fp);
}  // namespace detail

}  // namespace pfair
