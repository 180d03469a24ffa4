// Tests for the rendering / table / CSV helpers.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/tardiness.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "io/csv.hpp"
#include "io/export.hpp"
#include "io/json.hpp"
#include "io/render.hpp"
#include "io/table.hpp"
#include "io/trace_io.hpp"
#include "obs/capture.hpp"
#include "obs/trace.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

TEST(Render, SlotScheduleShowsPlacementsAndWindows) {
  const TaskSystem sys = fig6_system();
  const SlotSchedule sched = schedule_sfq(sys);
  const std::string out = render_slot_schedule(sys, sched);
  // One row per task, named.
  for (const Task& t : sys.tasks()) {
    EXPECT_NE(out.find(t.name() + " |"), std::string::npos) << out;
  }
  // Processor digits appear.
  EXPECT_NE(out.find('0'), std::string::npos);
  EXPECT_NE(out.find('1'), std::string::npos);
}

TEST(Render, DvqTimelineMarksEarlyYields) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 4));
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields);
  RenderOptions opts;
  opts.chars_per_slot = 8;
  const std::string out = render_dvq_schedule(sc.system, sched, opts);
  EXPECT_NE(out.find("P0"), std::string::npos);
  EXPECT_NE(out.find("P1"), std::string::npos);
  EXPECT_NE(out.find(')'), std::string::npos);  // early-yield marker
  EXPECT_NE(out.find("A1"), std::string::npos);
}

TEST(Render, DescribeSubtasksListsParameters) {
  const std::string out = describe_subtasks(fig1_periodic());
  EXPECT_NE(out.find("theta"), std::string::npos);
  EXPECT_NE(out.find("grpD"), std::string::npos);
}

TEST(Table, AlignsColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "12345"});
  const std::string out = t.str();
  std::istringstream is(out);
  std::string line1, sep, line3, line4;
  std::getline(is, line1);
  std::getline(is, sep);
  std::getline(is, line3);
  std::getline(is, line4);
  EXPECT_EQ(line3.size(), line4.size());
  EXPECT_NE(sep.find("---"), std::string::npos);
}

TEST(Table, RowWidthChecked) {
  TextTable t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), ContractViolation);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(std::int64_t{42}), "42");
  EXPECT_EQ(cell(1.5, 2), "1.50");
  EXPECT_EQ(cell_ratio(1, 2, 3), "0.500");
  EXPECT_THROW((void)cell_ratio(1, 0), ContractViolation);
}

// Hostile nesting is a structured parse error, not a stack overflow: a
// 200k-deep array or object throws InputError naming the limit,
// while nesting at the limit still parses.
TEST(Json, DeepNestingIsAStructuredError) {
  constexpr std::size_t kHostile = 200000;
  for (const auto& [open, close] :
       {std::pair<std::string, std::string>{"[", "]"},
        std::pair<std::string, std::string>{"{\"a\":", "}"}}) {
    std::string deep;
    for (std::size_t i = 0; i < kHostile; ++i) deep += open;
    deep += "0";
    for (std::size_t i = 0; i < kHostile; ++i) deep += close;
    try {
      (void)parse_json(deep);
      FAIL() << "expected a nesting error for " << open;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos)
          << e.what();
    }
  }
  std::string at_limit(256, '[');
  at_limit += std::string(256, ']');
  const JsonValue v = parse_json(at_limit);
  int depth = 0;
  for (const JsonValue* p = &v; p != nullptr;
       p = p->array.empty() ? nullptr : &p->array.front()) {
    ASSERT_TRUE(p->is(JsonValue::Kind::kArray));
    ++depth;
  }
  EXPECT_EQ(depth, 256);
  EXPECT_THROW((void)parse_json(std::string(257, '[') + std::string(257, ']')),
               InputError);
}

/// Malformed JSON, JSONL traces and capture bundles are InputErrors whose
/// text is the positioned message alone, never the C++ condition or the
/// source path of the check.
template <class F>
void expect_input_error(F&& f, const std::string& expected) {
  try {
    f();
    FAIL() << "expected an InputError: " << expected;
  } catch (const InputError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what, expected);
    EXPECT_EQ(what.find("precondition failed"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
  }
}

TEST(Json, MalformedInputIsAPositionedInputError) {
  expect_input_error([] { (void)parse_json(R"("a\qb")"); },
                     "bad escape '\\q' at offset 4");
  expect_input_error([] { (void)parse_json("[1, 2"); },
                     "unexpected end of JSON input");
  expect_input_error([] { (void)parse_json("{}").at("k"); },
                     "missing JSON key 'k'");
  // A truncated JSONL line names its line number.
  std::istringstream trace(
      "{\"k\": \"slot_begin\", \"t\": 0}\n\n{\"k\": \"place\", \"t\":");
  expect_input_error([&] { (void)read_trace_jsonl(trace); },
                     "trace line 3: unexpected end of JSON input");
  // A bundle of another schema, and one with an impossible weight.
  CaptureBundle b = CaptureBundle::prototype(fig6_system(), "sfq",
                                             Policy::kPd2);
  std::string json = capture_to_json(b);
  const std::string tag = "pfair-capture-v1";
  std::string other = json;
  other.replace(other.find(tag), tag.size(), "pfair-capture-v0");
  expect_input_error([&] { (void)capture_from_json(other); },
                     "unsupported capture schema \"pfair-capture-v0\"");
  b.tasks[0].we = b.tasks[0].wp + 1;
  json = capture_to_json(b);
  expect_input_error([&] { (void)capture_from_json(json); },
                     "task weight must satisfy 1 <= e <= p");
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  CsvWriter w;
  w.header({"x", "y"});
  w.row({"1", "2"});
  w.row({"3", "4,5"});
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,\"4,5\"\n");
}

TEST(Csv, RowWidthChecked) {
  CsvWriter w;
  w.header({"x", "y"});
  w.row({"1", "2"});
  EXPECT_THROW(w.row({"1"}), ContractViolation);
  EXPECT_THROW(w.row({"1", "2", "3"}), ContractViolation);
  // A rejected row leaves the writer as it was.
  EXPECT_EQ(w.text(), "x,y\n1,2\n");
  EXPECT_EQ(w.rows(), 1u);
  w.row({"3", "4"});
  EXPECT_EQ(w.text(), "x,y\n1,2\n3,4\n");
}

TEST(Csv, TypedRowWidthChecked) {
  CsvWriter w;
  w.header({"x", "y"});
  w.cell(1).cell(2).end_row();
  EXPECT_THROW(w.cell(3).end_row(), ContractViolation);
  EXPECT_EQ(w.text(), "x,y\n1,2\n");
  w.cell(3).cell(4).end_row();
  CsvWriter wide;
  wide.header({"x"});
  EXPECT_THROW(wide.cell(1).cell(2).end_row(), ContractViolation);
  wide.cell(5).end_row();
  // Rejected rows are not written either.
  std::ostringstream os;
  w.write(os);
  wide.write(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\nx\n5\n");
  EXPECT_EQ(w.rows(), 2u);
  EXPECT_EQ(wide.rows(), 1u);
}

TEST(Csv, TypedCellsMatchTheTextPath) {
  CsvWriter typed;
  typed.header({"a", "b", "c"});
  typed.cell(std::numeric_limits<std::int64_t>::min())
      .cell("x,\"y\"")
      .cell(0)
      .end_row();
  typed.cell(std::numeric_limits<std::int64_t>::max())
      .escaped_cell(csv_escape("line\nbreak"))
      .cell(-7)
      .end_row();
  CsvWriter text;
  text.header({"a", "b", "c"});
  text.row({std::to_string(std::numeric_limits<std::int64_t>::min()),
            "x,\"y\"", "0"});
  text.row({std::to_string(std::numeric_limits<std::int64_t>::max()),
            "line\nbreak", "-7"});
  EXPECT_EQ(typed.text(), text.text());
  EXPECT_EQ(typed.rows(), 2u);
  std::ostringstream os;
  typed.write(os);
  EXPECT_EQ(os.str(), typed.text());
}

TEST(Csv, HeaderMustComeFirst) {
  CsvWriter w;
  w.row({"1"});
  EXPECT_THROW(w.header({"x"}), ContractViolation);
}

// --- export contract: byte-equal to the per-field string oracle --------
//
// The oracle is the exporters' original algorithm: every field becomes a
// std::string (std::to_string / csv_escape), tardiness comes from
// subtask_tardiness*, and rows are joined with ',' and '\n'.

std::string oracle_line(const std::vector<std::string>& cols) {
  std::string out;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ',';
    out += csv_escape(cols[i]);
  }
  return out + '\n';
}

std::string oracle_task_system(const TaskSystem& sys) {
  std::string out = oracle_line({"task", "name", "weight", "index", "theta",
                                 "release", "deadline", "eligible", "bbit",
                                 "group_deadline"});
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int32_t i = 0; i < task.num_subtasks(); ++i) {
      const Subtask s = task.subtask_at(i);
      out += oracle_line({std::to_string(k), task.name(), task.weight().str(),
                          std::to_string(s.index), std::to_string(s.theta),
                          std::to_string(s.release),
                          std::to_string(s.deadline),
                          std::to_string(s.eligible), s.bbit ? "1" : "0",
                          std::to_string(s.group_deadline)});
    }
  }
  return out;
}

std::string oracle_slot_schedule(const TaskSystem& sys,
                                 const SlotSchedule& sched) {
  std::string out = oracle_line({"task", "name", "index", "slot", "proc",
                                 "deadline", "tardiness_slots"});
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const SlotPlacement& p = sched.placement(ref);
      if (!p.scheduled()) continue;
      out += oracle_line({std::to_string(k), task.name(),
                          std::to_string(task.subtask(s).index),
                          std::to_string(p.slot), std::to_string(p.proc),
                          std::to_string(task.subtask(s).deadline),
                          std::to_string(subtask_tardiness(sys, sched, ref))});
    }
  }
  return out;
}

std::string oracle_dvq_schedule(const TaskSystem& sys,
                                const DvqSchedule& sched) {
  std::string out =
      oracle_line({"task", "name", "index", "start_ticks", "cost_ticks",
                   "proc", "deadline", "tardiness_ticks"});
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const DvqPlacement& p = sched.placement(ref);
      if (!p.placed) continue;
      out += oracle_line(
          {std::to_string(k), task.name(),
           std::to_string(task.subtask(s).index),
           std::to_string(p.start.raw_ticks()),
           std::to_string(p.cost.raw_ticks()), std::to_string(p.proc),
           std::to_string(task.subtask(s).deadline),
           std::to_string(subtask_tardiness_ticks(sys, sched, ref))});
    }
  }
  return out;
}

/// Exports `sys` and its SFQ and DVQ schedules both ways; returns the
/// number of schedule rows compared.
std::size_t expect_exports_match(const TaskSystem& sys,
                                 const YieldModel& yields,
                                 const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(export_task_system(sys).text(), oracle_task_system(sys));
  const SlotSchedule sfq = schedule_sfq(sys);
  const CsvWriter sw = export_slot_schedule(sys, sfq);
  EXPECT_EQ(sw.text(), oracle_slot_schedule(sys, sfq));
  const DvqSchedule dvq = schedule_dvq(sys, yields);
  const CsvWriter dw = export_dvq_schedule(sys, dvq);
  EXPECT_EQ(dw.text(), oracle_dvq_schedule(sys, dvq));
  return sw.rows() + dw.rows();
}

TEST(ExportContract, FigureScenariosMatchTheOracle) {
  const FullQuantumYield full;
  for (const char* name : {"fig1a", "fig1b", "fig1c", "fig2", "fig3",
                           "fig6"}) {
    const std::optional<FigureScenario> sc = figure_scenario_by_name(name);
    ASSERT_TRUE(sc.has_value()) << name;
    const YieldModel& y =
        sc->yields != nullptr ? static_cast<const YieldModel&>(*sc->yields)
                              : full;
    EXPECT_GT(expect_exports_match(sc->system, y, name), 0u);
  }
}

TEST(ExportContract, SeededPeriodicAndGisSystemsMatchTheOracle) {
  for (int seed = 0; seed < 20; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 2 + seed % 4;
    cfg.target_util = Rational(cfg.processors);
    cfg.weights = static_cast<WeightClass>(seed % 4);
    cfg.horizon = 24 + 8 * (seed % 3);
    cfg.seed = 900 + static_cast<std::uint64_t>(seed);
    TaskSystem sys = generate_periodic(cfg);
    if (seed % 2 == 1) {
      sys = drop_subtasks(sys, 1, 3, static_cast<std::uint64_t>(seed));
    }
    const BernoulliYield yields(static_cast<std::uint64_t>(seed) + 11, 1, 2,
                                kTick, kQuantum - kTick);
    expect_exports_match(sys, yields, "seed " + std::to_string(seed));
  }
}

TEST(ExportContract, QuotedTaskNamesMatchTheOracle) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("comma,name", Weight(1, 2), 12));
  tasks.push_back(Task::periodic("say \"hi\"", Weight(1, 3), 12));
  tasks.push_back(Task::periodic("line\nbreak", Weight(1, 6), 12));
  tasks.push_back(Task::periodic("plain", Weight(1, 4), 12));
  const TaskSystem sys(std::move(tasks), 2);
  const BernoulliYield yields(5, 1, 2, kTick, kQuantum - kTick);
  expect_exports_match(sys, yields, "quoted names");
  // The quoting really happened (the oracle is not vacuous).
  const std::string csv(export_slot_schedule(sys, schedule_sfq(sys)).text());
  EXPECT_NE(csv.find("\"comma,name\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("\"line\nbreak\""), std::string::npos);
}

TEST(ExportContract, PartialSchedulesSkipUnplacedRows) {
  const TaskSystem sys = fig6_system();
  SfqOptions opts;
  opts.horizon_limit = 3;  // cut the run short: some rows are absent
  const SlotSchedule sfq = schedule_sfq(sys, opts);
  ASSERT_FALSE(sfq.complete());
  EXPECT_EQ(export_slot_schedule(sys, sfq).text(),
            oracle_slot_schedule(sys, sfq));
}

TEST(ChromeTrace, SlotScheduleEventsMatchPlacements) {
  const TaskSystem sys = fig6_system();
  const SlotSchedule sched = schedule_sfq(sys);
  const JsonValue doc = parse_json(export_chrome_trace(sys, sched));
  const JsonValue& evs = doc.at("traceEvents");
  ASSERT_TRUE(evs.is(JsonValue::Kind::kArray));

  std::int64_t placed = 0;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      if (sched.placement(SubtaskRef{k, s}).scheduled()) ++placed;
    }
  }
  std::int64_t complete = 0;
  for (const JsonValue& e : evs.array) {
    ASSERT_EQ(e.at("ph").string, "X");
    ++complete;
  }
  EXPECT_EQ(complete, placed);
}

TEST(ChromeTrace, TidIsThePlacementProcessor) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 4));
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields);
  const JsonValue doc = parse_json(export_chrome_trace(sc.system, sched));

  // Index expected (name, tid) pairs from the schedule itself.
  std::map<std::string, int> proc_of;
  for (std::int32_t k = 0; k < sc.system.num_tasks(); ++k) {
    const Task& task = sc.system.task(k);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const DvqPlacement& p = sched.placement(SubtaskRef{k, s});
      if (!p.placed) continue;
      proc_of[task.name() + "_" + std::to_string(task.subtask(s).index)] =
          p.proc;
    }
  }
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const auto it = proc_of.find(e.at("name").string);
    ASSERT_NE(it, proc_of.end()) << e.at("name").string;
    EXPECT_EQ(e.at("tid").integer, it->second);
  }
}

TEST(ChromeTrace, CapturedTraceBecomesInstantEvents) {
  const TaskSystem sys = fig6_system();
  RingBufferSink sink(1 << 16);
  SfqOptions opts;
  opts.trace = &sink;
  const SlotSchedule sched = schedule_sfq(sys, opts);

  const std::vector<TraceEvent> events = sink.snapshot();
  const JsonValue doc =
      parse_json(export_chrome_trace(sys, sched, events));
  std::int64_t instants = 0, compares = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").string != "i") continue;
    ++instants;
    if (e.at("name").string == "compare") ++compares;
  }
  EXPECT_GT(instants, 0);
  // kCompare events are deliberately excluded from the timeline.
  EXPECT_EQ(compares, 0);
  // Both overloads agree on the complete events.
  const JsonValue plain = parse_json(export_chrome_trace(sys, sched));
  std::int64_t complete = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "X") ++complete;
  }
  EXPECT_EQ(complete,
            static_cast<std::int64_t>(plain.at("traceEvents").array.size()));
}

TEST(ChromeTrace, DropCountBecomesTruncationMetadata) {
  const TaskSystem sys = fig6_system();
  const SlotSchedule sched = schedule_sfq(sys, SfqOptions{});

  // No drops: no truncation marker, no otherData.
  const std::string clean =
      export_chrome_trace(sys, sched, ChromeTraceExtras{});
  EXPECT_EQ(clean.find("trace truncated"), std::string::npos);
  EXPECT_EQ(clean.find("otherData"), std::string::npos);

  // Drops rename the schedule process and record the exact count under
  // otherData, so a truncated timeline is visibly truncated.
  const std::string truncated = export_chrome_trace(
      sys, sched, ChromeTraceExtras{.events_dropped = 37});
  EXPECT_NE(truncated.find("trace truncated: 37 events dropped"),
            std::string::npos);
  const JsonValue doc = parse_json(truncated);
  const JsonValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* dropped = other->find("trace_events_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->integer, 37);
}

}  // namespace
}  // namespace pfair
