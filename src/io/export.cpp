#include "io/export.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/tardiness.hpp"
#include "io/json.hpp"
#include "obs/prof.hpp"

namespace pfair {

namespace {

/// Trace-event timebase: one slot = 1000 "microseconds".
constexpr std::int64_t kTraceUsPerSlot = 1000;

std::int64_t to_trace_us(Time t) {
  return t.raw_ticks() * kTraceUsPerSlot / kTicksPerSlot;
}

void emit_event(std::ostream& os, bool& first, const std::string& name,
                int proc, std::int64_t ts_us, std::int64_t dur_us,
                std::int64_t deadline, std::int64_t tardiness_ticks) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name": ")" << name << R"(", "cat": "subtask", "ph": "X",)"
     << R"( "pid": 1, "tid": )" << proc << R"(, "ts": )" << ts_us
     << R"(, "dur": )" << dur_us << R"(, "args": {"deadline": )" << deadline
     << R"(, "tardiness_ticks": )" << tardiness_ticks << "}}";
}

/// Renders a scheduler trace event as a thread-scoped instant event.
/// Processor-less events land on tid M, a synthetic "scheduler" row.
void emit_instants(std::ostream& os, bool& first, const TaskSystem& sys,
                   std::span<const TraceEvent> events) {
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kCompare) continue;
    if (first) {
      first = false;
    } else {
      os << ",\n";
    }
    const int tid = e.proc >= 0 ? e.proc : sys.processors();
    os << R"(  {"name": ")" << to_string(e.kind)
       << R"(", "cat": "decision", "ph": "i", "s": "t", "pid": 1, "tid": )"
       << tid << R"(, "ts": )" << to_trace_us(e.at) << R"(, "args": {)";
    bool farg = true;
    auto arg = [&](const char* key, std::int64_t v) {
      if (!farg) os << ", ";
      farg = false;
      os << '"' << key << "\": " << v;
    };
    if (e.subject.valid()) {
      arg("task", e.subject.task);
      arg("seq", e.subject.seq);
    }
    if (e.aux != 0) arg("aux", e.aux);
    arg("d", e.detail);
    os << "}}";
  }
}

void emit_metadata(std::ostream& os, bool& first, int pid,
                   const char* kind, const std::string& value) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name": ")" << kind << R"(", "ph": "M", "pid": )" << pid
     << R"(, "tid": 0, "args": {"name": ")" << json_escape(value)
     << "\"}}";
}

/// Profiler process row (pid 2): every recorded span as a ph:"X" event
/// in real wall-clock microseconds, one thread row per profiled thread.
void emit_profile_spans(std::ostream& os, bool& first,
                        const prof::ProfileSnapshot& profile) {
  emit_metadata(os, first, 2, "process_name",
                "profiler (" + profile.clock + ")");
  const double ns = profile.ns_per_tick;
  for (const prof::SpanRecord& s : profile.spans) {
    if (!first) os << ",\n";
    first = false;
    const auto ts = static_cast<std::int64_t>(
        std::llround(static_cast<double>(s.start_ticks) * ns / 1000.0));
    const auto dur = static_cast<std::int64_t>(
        std::llround(static_cast<double>(s.dur_ticks) * ns / 1000.0));
    os << R"(  {"name": ")" << prof::to_string(s.phase)
       << R"(", "cat": "prof", "ph": "X", "pid": 2, "tid": )" << s.thread
       << R"(, "ts": )" << ts << R"(, "dur": )" << dur
       << R"(, "args": {"depth": )" << s.depth << "}}";
  }
}

/// Shared tail: instants, truncation metadata, profiler spans, footer.
void finish_trace(std::ostream& os, bool& first, const TaskSystem& sys,
                  const ChromeTraceExtras& extras) {
  emit_instants(os, first, sys, extras.events);
  if (extras.events_dropped > 0) {
    emit_metadata(os, first, 1, "process_name",
                  "schedule (trace truncated: " +
                      std::to_string(extras.events_dropped) +
                      " events dropped)");
  }
  if (extras.profile != nullptr) {
    emit_profile_spans(os, first, *extras.profile);
  }
  os << "\n]";
  if (extras.events_dropped > 0) {
    os << ", \"otherData\": {\"trace_events_dropped\": "
       << extras.events_dropped << "}";
  }
  os << ", \"displayTimeUnit\": \"ms\"}\n";
}

/// Pre-sizes `w` for one row per subtask: the task's name (quoted at
/// worst) plus `number_bytes` of numeric cells and separators.
void reserve_rows(CsvWriter& w, const TaskSystem& sys,
                  std::size_t number_bytes) {
  std::size_t bytes = w.text().size();
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    bytes += (task.name().size() + 2 + number_bytes) *
             static_cast<std::size_t>(task.num_subtasks());
  }
  w.reserve(bytes);
}

}  // namespace

// The CSV exporters append typed cells straight into the writer's
// buffer: each task's name is escaped once, and tardiness comes from
// the placement and deadline already in hand.

CsvWriter export_task_system(const TaskSystem& sys) {
  CsvWriter w;
  w.header({"task", "name", "weight", "index", "theta", "release",
            "deadline", "eligible", "bbit", "group_deadline"});
  reserve_rows(w, sys, 72);
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    const std::string name = csv_escape(task.name());
    const std::string weight = csv_escape(task.weight().str());
    for (std::int32_t i = 0; i < task.num_subtasks(); ++i) {
      const Subtask s = task.subtask_at(i);
      w.cell(k)
          .escaped_cell(name)
          .escaped_cell(weight)
          .cell(s.index)
          .cell(s.theta)
          .cell(s.release)
          .cell(s.deadline)
          .cell(s.eligible)
          .cell(s.bbit ? 1 : 0)
          .cell(s.group_deadline)
          .end_row();
    }
  }
  return w;
}

CsvWriter export_slot_schedule(const TaskSystem& sys,
                               const SlotSchedule& sched) {
  CsvWriter w;
  w.header({"task", "name", "index", "slot", "proc", "deadline",
            "tardiness_slots"});
  reserve_rows(w, sys, 40);
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    const std::string name = csv_escape(task.name());
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SlotPlacement p = sched.placement(SubtaskRef{k, s});
      if (!p.scheduled()) continue;
      const Subtask sub = task.subtask_at(s);
      // Completion in the SFQ model is slot + 1.
      w.cell(k)
          .escaped_cell(name)
          .cell(sub.index)
          .cell(p.slot)
          .cell(p.proc)
          .cell(sub.deadline)
          .cell(std::max<std::int64_t>(0, p.slot + 1 - sub.deadline))
          .end_row();
    }
  }
  return w;
}

CsvWriter export_dvq_schedule(const TaskSystem& sys,
                              const DvqSchedule& sched) {
  CsvWriter w;
  w.header({"task", "name", "index", "start_ticks", "cost_ticks", "proc",
            "deadline", "tardiness_ticks"});
  reserve_rows(w, sys, 56);
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    const std::string name = csv_escape(task.name());
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const DvqPlacement& p = sched.placement(SubtaskRef{k, s});
      if (!p.placed) continue;
      const Subtask sub = task.subtask_at(s);
      const Time late = p.completion() - Time::slots(sub.deadline);
      w.cell(k)
          .escaped_cell(name)
          .cell(sub.index)
          .cell(p.start.raw_ticks())
          .cell(p.cost.raw_ticks())
          .cell(p.proc)
          .cell(sub.deadline)
          .cell(std::max<std::int64_t>(0, late.raw_ticks()))
          .end_row();
    }
  }
  return w;
}

std::string export_chrome_trace(const TaskSystem& sys,
                                const DvqSchedule& sched) {
  return export_chrome_trace(sys, sched, ChromeTraceExtras{});
}

std::string export_chrome_trace(const TaskSystem& sys,
                                const SlotSchedule& sched) {
  return export_chrome_trace(sys, sched, ChromeTraceExtras{});
}

std::string export_chrome_trace(const TaskSystem& sys,
                                const DvqSchedule& sched,
                                std::span<const TraceEvent> events) {
  return export_chrome_trace(sys, sched, ChromeTraceExtras{.events = events});
}

std::string export_chrome_trace(const TaskSystem& sys,
                                const SlotSchedule& sched,
                                std::span<const TraceEvent> events) {
  return export_chrome_trace(sys, sched, ChromeTraceExtras{.events = events});
}

std::string export_chrome_trace(const TaskSystem& sys,
                                const DvqSchedule& sched,
                                const ChromeTraceExtras& extras) {
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const DvqPlacement& p = sched.placement(ref);
      if (!p.placed) continue;
      emit_event(os, first,
                 task.name() + "_" + std::to_string(task.subtask(s).index),
                 p.proc, to_trace_us(p.start), to_trace_us(p.cost),
                 task.subtask(s).deadline,
                 subtask_tardiness_ticks(sys, sched, ref));
    }
  }
  finish_trace(os, first, sys, extras);
  return os.str();
}

std::string export_chrome_trace(const TaskSystem& sys,
                                const SlotSchedule& sched,
                                const ChromeTraceExtras& extras) {
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const SlotPlacement& p = sched.placement(ref);
      if (!p.scheduled()) continue;
      emit_event(os, first,
                 task.name() + "_" + std::to_string(task.subtask(s).index),
                 p.proc, p.slot * kTraceUsPerSlot, kTraceUsPerSlot,
                 task.subtask(s).deadline,
                 subtask_tardiness(sys, sched, ref) * kTicksPerSlot);
    }
  }
  finish_trace(os, first, sys, extras);
  return os.str();
}

}  // namespace pfair
