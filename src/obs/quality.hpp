// Scheduler-quality counters: preemptions, migrations, idle capacity,
// and per-processor context switches.
//
// These are the practicality metrics the multiprocessor-scheduling
// literature compares algorithms on (a schedule that meets every
// deadline but thrashes tasks across CPUs is not free).  One producer
// fills them: analysis/recount.hpp derives them from a finished,
// complete schedule in O(schedule), and every scheduler entry point
// adds that recount to the `QualityCounters` attached via
// SfqOptions/DvqOptions and to the sched.preemptions / .migrations /
// .idle_quanta metrics, which share these definitions.  The simulators
// count nothing per decision.
//
// Definitions (shared across the slot-synchronous and event-driven
// models; "instant" is a slot boundary for SFQ and a dispatch event for
// DVQ):
//   * preemption  — a subtask that was ready the instant its
//     predecessor completed (its eligibility time had already passed)
//     yet runs strictly later: the task held a processor and was
//     descheduled rather than continuing.  Charged once per such pair
//     (SFQ charges it at the first denied slot, DVQ at the eventual
//     start; the totals are identical);
//   * migration   — a subtask placed on a different processor than its
//     predecessor subtask;
//   * idle slot   — one processor left unoccupied for one decision
//     instant while the simulator stepped it (unit: processor-slots for
//     SFQ, processor-events for DVQ);
//   * context switch — a placement on a processor whose previous
//     placement was a *different* task (idle gaps in between do not
//     reset this; the first task on a processor is not a switch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pfair {

class MetricsRegistry;  // obs/metrics.hpp

/// Accumulated quality counters for one scheduling run.
struct QualityCounters {
  std::int64_t preemptions = 0;
  std::int64_t migrations = 0;
  std::int64_t idle_slots = 0;
  std::int64_t context_switches = 0;
  /// Decision instants the simulator stepped through (slots for SFQ,
  /// dispatch events for DVQ) — the denominator for per-instant rates.
  std::int64_t decision_points = 0;
  /// Context switches attributed to each processor; sums to
  /// context_switches.
  std::vector<std::int64_t> per_proc_switches;

  bool operator==(const QualityCounters&) const = default;
  /// Adds `o` field by field (per-processor switches included).
  QualityCounters& operator+=(const QualityCounters& o);

  /// Ensures per_proc_switches covers `procs` processors.
  void resize_procs(std::size_t procs) {
    if (per_proc_switches.size() < procs) per_proc_switches.resize(procs);
  }
};

/// One-line human-readable rendering for CLI output.
[[nodiscard]] std::string quality_to_string(const QualityCounters& q);

/// Publishes the counters as <prefix>.* into `reg`
/// (<prefix>.preemptions, .migrations, .idle_slots, .context_switches,
/// .decision_points, .proc<k>.context_switches).  Override the prefix
/// when one registry carries several runs (e.g. "sched.quality.sfq").
void publish_quality(const QualityCounters& q, MetricsRegistry& reg,
                     const std::string& prefix = "sched.quality");

}  // namespace pfair
