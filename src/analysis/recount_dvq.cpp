// The DVQ half of analysis/recount.hpp.  It is compiled into pfair_dvq
// (the SFQ half into pfair_sched) so the DVQ reference scheduler can
// fill the quality counters from this oracle when it finishes.
#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "analysis/recount.hpp"
#include "core/assert.hpp"
#include "core/radix_sort.hpp"
#include "core/time.hpp"

namespace pfair {

namespace {

/// Migrations and preemptions, counted by the per-task walk.
struct TaskCounts {
  std::int64_t migrations = 0;
  std::int64_t preemptions = 0;
};

/// Walks every placement in flat index order (task-major, seq order),
/// calling f(flat, readiness, start, end, proc, task) in ticks.  The
/// readiness instant reproduces the simulator's rule: the later of the
/// slot-aligned eligibility and the predecessor's completion.
/// Migrations and preemptions fall out of the walk directly: a
/// preemption is a subtask that was ready the instant its predecessor
/// completed (eligibility already passed) yet starts strictly later.
template <class F>
TaskCounts walk_subtasks(const TaskSystem& sys, const DvqSchedule& sched,
                         F&& f) {
  TaskCounts counts;
  std::size_t flat = 0;
  for (std::int32_t k = 0; k < sched.num_tasks(); ++k) {
    SubtaskCursor subs(sys.task(k));
    std::int64_t prev_end = 0;
    int prev_proc = -1;
    sched.walk_task(k, [&](std::int32_t s, const DvqPlacement& pl) {
      const std::int64_t elig =
          Time::slots(subs.next().eligible).raw_ticks();
      const std::int64_t start = pl.start.raw_ticks();
      const std::int64_t end = pl.completion().raw_ticks();
      f(flat++, s == 0 ? elig : std::max(elig, prev_end), start, end,
        pl.proc, k);
      if (s > 0) {
        if (prev_proc != pl.proc) ++counts.migrations;
        if (start > prev_end && elig <= prev_end) ++counts.preemptions;
      }
      prev_end = end;
      prev_proc = pl.proc;
    });
  }
  return counts;
}

/// The recount from the schedule's order log, with no sort of the
/// placements.  Applies only if the log names every cell exactly once
/// (count plus an inverse-position table that rejects a repeat) with
/// nondecreasing starts from 0 on, no allocation starts before its
/// processor's previous one ends, and every readiness instant lies in
/// [0, last start]; otherwise returns false with `q` untouched.  The log
/// supplies order only: the walk reads every start, end and processor
/// from the table and files it at its log position.
///
/// Under those conditions (no processor double-booked) the sorted sweep
/// of recount_sorted reduces to: the decision instants are every
/// completion up to the last start — a completion the next allocation on
/// its processor starts at is that start, any other (a processor going
/// idle) is one of few and sorted here — plus every slot-aligned
/// readiness instant (any other is its predecessor's completion, already
/// an instant); and each instant t idles M - act(t) processors, act(t)
/// being the allocations with start <= t < end.
bool recount_in_log_order(const TaskSystem& sys, const DvqSchedule& sched,
                          QualityCounters& q) {
  const std::span<const std::int64_t> log = sched.order_log();
  const auto n = static_cast<std::size_t>(sched.stored_cells());
  if (log.size() != n || n == 0) return false;
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> pos_of(n, kNone);  // flat index -> log position
  for (std::size_t j = 0; j < n; ++j) {
    const std::int64_t i = log[j];
    if (i < 0 || static_cast<std::size_t>(i) >= n) return false;
    std::size_t& pos = pos_of[static_cast<std::size_t>(i)];
    if (pos != kNone) return false;
    pos = j;
  }
  // The latest start, if the starts prove nondecreasing below.
  const std::int64_t t_last =
      sched.flat_placement(log.back()).start.raw_ticks();
  const std::int64_t slots = t_last / kTicksPerSlot + 1;
  if (t_last < 0 || slots > 4 * static_cast<std::int64_t>(n)) return false;

  // The placements in log order (the walk's writes scatter; every later
  // read is sequential), and the slots holding a readiness instant.
  std::unique_ptr<detail::ProcCell[]> by_log(new detail::ProcCell[n]);
  std::unique_ptr<std::int64_t[]> end_by_log(new std::int64_t[n]);
  std::vector<std::uint8_t> slot_ready(static_cast<std::size_t>(slots));
  bool ready_in_range = true;
  const TaskCounts counts = walk_subtasks(
      sys, sched,
      [&](std::size_t flat, std::int64_t ready, std::int64_t start,
          std::int64_t end, std::int32_t proc, std::int32_t task) {
        const std::size_t j = pos_of[flat];
        by_log[j] = detail::ProcCell{start, proc, task};
        end_by_log[j] = end;
        if (ready < 0 || ready > t_last) {
          ready_in_range = false;
        } else if (ready % kTicksPerSlot == 0) {
          slot_ready[static_cast<std::size_t>(ready / kTicksPerSlot)] = 1;
        }
      });
  if (!ready_in_range) return false;

  const std::size_t procs = q.per_proc_switches.size();
  std::vector<std::int64_t> last_end(procs, -1);  // -1: processor unused
  // continues[j]: by_log[j] starts the instant its processor's previous
  // allocation completes, so that completion is this start.
  std::vector<std::uint8_t> continues(n);
  std::vector<std::int64_t> idle_ends;  // every other completion
  std::int64_t prev = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const detail::ProcCell& c = by_log[j];
    if (c.proc < 0 || static_cast<std::size_t>(c.proc) >= procs ||
        c.at < prev) {
      return false;
    }
    std::int64_t& last = last_end[static_cast<std::size_t>(c.proc)];
    if (c.at < last) return false;
    if (last >= 0 && c.at > last) idle_ends.push_back(last);
    continues[j] = c.at == last ? 1 : 0;
    last = end_by_log[j];
    prev = c.at;
  }
  for (const std::int64_t last : last_end) {
    if (last >= 0) idle_ends.push_back(last);
  }
  std::sort(idle_ends.begin(), idle_ends.end());
  idle_ends.erase(
      std::upper_bound(idle_ends.begin(), idle_ends.end(), t_last),
      idle_ends.end());
  // The few instants that are no continuation start, ascending: slots
  // holding a readiness instant, and completions after which `idle_ends`
  // processors went idle.
  struct Special {
    std::int64_t at;
    std::int64_t idle_ends;
  };
  std::vector<Special> specials;
  std::size_t ie = 0;
  for (std::int64_t slot = 0; slot <= slots; ++slot) {
    const std::int64_t at = slot * kTicksPerSlot;
    for (; ie < idle_ends.size() && idle_ends[ie] < at; ++ie) {
      if (specials.empty() || specials.back().at != idle_ends[ie]) {
        specials.push_back(Special{idle_ends[ie], 0});
      }
      ++specials.back().idle_ends;
    }
    if (slot < slots && slot_ready[static_cast<std::size_t>(slot)] != 0) {
      specials.push_back(Special{at, 0});
    }
  }

  q.migrations = counts.migrations;
  q.preemptions = counts.preemptions;
  detail::count_switches({by_log.get(), n}, q);
  // One pass over the starts, one group of equal starts at a time, with
  // the specials merged in: act runs as starts minus completions so far.
  const auto m = static_cast<std::int64_t>(procs);
  std::int64_t act = 0;
  std::size_t sp = 0;
  const auto instant = [&](std::int64_t idle_ends_here) {
    act -= idle_ends_here;
    ++q.decision_points;
    q.idle_slots += m - act;
  };
  for (std::size_t j = 0; j < n;) {
    const std::int64_t t = by_log[j].at;
    for (; sp < specials.size() && specials[sp].at < t; ++sp) {
      instant(specials[sp].idle_ends);
    }
    std::int64_t starts = 0, conts = 0;
    do {
      ++starts;
      conts += continues[j];
      ++j;
    } while (j < n && by_log[j].at == t);
    // The group's starts and the completions they continue, all at t.
    act += starts - conts;
    if (sp < specials.size() && specials[sp].at == t) {
      instant(specials[sp++].idle_ends);
    } else if (conts > 0) {
      instant(0);
    }
  }
  return true;
}

/// The recount of any complete schedule: sorts the cells, the readiness
/// instants and the completions (radix sorts, core/radix_sort.hpp, keep
/// every ordering O(N)).
void recount_sorted(const TaskSystem& sys, const DvqSchedule& sched,
                    QualityCounters& q) {
  const auto total = static_cast<std::size_t>(sys.total_subtasks());
  std::vector<std::int64_t> readies;
  std::vector<std::int64_t> ends;
  std::vector<detail::ProcCell> cells;
  readies.reserve(total);
  ends.reserve(total);
  cells.reserve(total);
  const TaskCounts counts = walk_subtasks(
      sys, sched,
      [&](std::size_t, std::int64_t ready, std::int64_t start,
          std::int64_t end, std::int32_t proc, std::int32_t task) {
        readies.push_back(ready);
        ends.push_back(end);
        cells.push_back(detail::ProcCell{start, proc, task});
      });
  q.migrations = counts.migrations;
  q.preemptions = counts.preemptions;
  // Cells sorted by start time double as the sorted start list.
  {
    std::vector<detail::ProcCell> scratch;
    sort_by_key(
        cells, scratch, [](const detail::ProcCell& c) { return c.at; },
        detail::cell_before);
  }
  detail::count_switches(cells, q);
  if (cells.empty()) return;
  {
    std::vector<std::int64_t> scratch;
    sort_int64(readies, scratch);
    sort_int64(ends, scratch);
  }

  // Decision instants: every readiness instant, plus every completion at
  // or before the last start (the simulator stops once all work is
  // placed, so later completions are never stepped) — a merge of the
  // two sorted lists.
  const std::int64_t t_last = cells.back().at;
  std::vector<std::int64_t> instants;
  instants.reserve(readies.size() + ends.size());
  std::merge(readies.begin(), readies.end(), ends.begin(),
             std::upper_bound(ends.begin(), ends.end(), t_last),
             std::back_inserter(instants));
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());

  // One sweep, three monotone cursors, for decision points and idle
  // capacity.  At each instant t (before that instant's dispatch):
  // busy = started strictly before t and not yet completed; placed =
  // the batch dispatched exactly at t.  Every free processor the batch
  // leaves unfilled idles for this decision instant.
  const auto procs = static_cast<std::int64_t>(q.per_proc_switches.size());
  std::size_t i_start_lt = 0; // start < t
  std::size_t i_start_le = 0; // start <= t
  std::size_t i_end_le = 0;   // completion <= t
  for (const std::int64_t t : instants) {
    while (i_start_lt < cells.size() && cells[i_start_lt].at < t) {
      ++i_start_lt;
    }
    while (i_start_le < cells.size() && cells[i_start_le].at <= t) {
      ++i_start_le;
    }
    while (i_end_le < ends.size() && ends[i_end_le] <= t) ++i_end_le;

    ++q.decision_points;
    const std::int64_t busy = static_cast<std::int64_t>(i_start_lt) -
                              static_cast<std::int64_t>(i_end_le);
    const std::int64_t free0 = procs - busy;
    if (free0 <= 0) continue;  // readiness event with every CPU busy
    const std::int64_t placed = static_cast<std::int64_t>(i_start_le) -
                                static_cast<std::int64_t>(i_start_lt);
    if (placed < free0) q.idle_slots += free0 - placed;
  }
}

}  // namespace

QualityCounters recount_quality(const TaskSystem& sys,
                                const DvqSchedule& sched) {
  PFAIR_REQUIRE(sched.complete(), "quality recount requires a complete "
                                  "schedule");
  QualityCounters q;
  q.resize_procs(static_cast<std::size_t>(sys.processors()));
  if (!recount_in_log_order(sys, sched, q)) recount_sorted(sys, sched, q);
  return q;
}

}  // namespace pfair
