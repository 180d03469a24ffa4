#include "obs/capture.hpp"

#include <sstream>
#include <utility>

#include "analysis/validity.hpp"
#include "core/assert.hpp"
#include "dvq/reference_scheduler.hpp"
#include "io/json.hpp"
#include "io/trace_io.hpp"
#include "sched/reference_scheduler.hpp"

namespace pfair {

namespace {

constexpr const char* kSchema = "pfair-capture-v1";

std::optional<Violation::Kind> violation_kind_from_string(
    std::string_view s) {
  for (int k = 0; k <= static_cast<int>(Violation::Kind::kLagBound); ++k) {
    const auto kind = static_cast<Violation::Kind>(k);
    if (s == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::int64_t req_int(const JsonValue& v, std::string_view key) {
  const JsonValue& f = v.at(key);
  PFAIR_REQUIRE_INPUT(f.is(JsonValue::Kind::kNumber) && f.is_integer,
                      "capture field \"" << key << "\" must be an integer");
  return f.integer;
}

std::int64_t int_or(const JsonValue& v, std::string_view key,
                    std::int64_t fallback) {
  return v.find(key) == nullptr ? fallback : req_int(v, key);
}

const std::string& req_str(const JsonValue& v, std::string_view key) {
  const JsonValue& f = v.at(key);
  PFAIR_REQUIRE_INPUT(f.is(JsonValue::Kind::kString),
                      "capture field \"" << key << "\" must be a string");
  return f.string;
}

const JsonValue& req_array(const JsonValue& v, std::string_view key) {
  const JsonValue& f = v.at(key);
  PFAIR_REQUIRE_INPUT(f.is(JsonValue::Kind::kArray),
                      "capture field \"" << key << "\" must be an array");
  return f;
}

std::int64_t elem_int(const JsonValue& arr, std::size_t i) {
  PFAIR_REQUIRE_INPUT(i < arr.array.size() &&
                          arr.array[i].is(JsonValue::Kind::kNumber) &&
                          arr.array[i].is_integer,
                      "capture array element " << i << " must be an integer");
  return arr.array[i].integer;
}

}  // namespace

std::unique_ptr<YieldModel> CaptureBundle::YieldSpec::make() const {
  if (kind == "full") return std::make_unique<FullQuantumYield>();
  if (kind == "fixed") {
    return std::make_unique<FixedYield>(Time::ticks(delta_ticks));
  }
  if (kind == "bern") {
    return std::make_unique<BernoulliYield>(seed, num, den,
                                            Time::ticks(min_ticks),
                                            Time::ticks(max_ticks));
  }
  if (kind == "scripted") {
    auto y = std::make_unique<ScriptedYield>();
    for (const auto& c : costs) {
      y->set(SubtaskRef{static_cast<std::int32_t>(c[0]),
                        static_cast<std::int32_t>(c[1])},
             Time::ticks(c[2]));
    }
    return y;
  }
  PFAIR_REQUIRE_INPUT(false, "unknown yield kind \"" << kind << "\"");
  return nullptr;  // unreachable
}

CaptureBundle CaptureBundle::prototype(const TaskSystem& sys,
                                       std::string model, Policy policy,
                                       std::int64_t horizon_limit,
                                       std::uint64_t seed) {
  CaptureBundle b;
  b.model = std::move(model);
  b.policy = policy;
  b.processors = sys.processors();
  b.horizon_limit = horizon_limit;
  b.seed = seed;
  b.tasks.reserve(static_cast<std::size_t>(sys.num_tasks()));
  for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& t = sys.task(k);
    TaskSpec spec;
    spec.name = t.name();
    spec.we = t.weight().e;
    spec.wp = t.weight().p;
    spec.subtasks.reserve(static_cast<std::size_t>(t.num_subtasks()));
    for (std::int64_t s = 0; s < t.num_subtasks(); ++s) {
      const Subtask sub = t.subtask_at(s);
      spec.subtasks.push_back(
          Task::SubtaskSpec{sub.index, sub.theta, sub.eligible});
    }
    b.tasks.push_back(std::move(spec));
  }
  return b;
}

TaskSystem CaptureBundle::build_system() const {
  PFAIR_REQUIRE_INPUT(!tasks.empty(), "capture bundle holds no tasks");
  std::vector<Task> ts;
  ts.reserve(tasks.size());
  for (const TaskSpec& t : tasks) {
    ts.push_back(Task::gis(t.name, Weight{t.we, t.wp}, t.subtasks));
  }
  return TaskSystem(std::move(ts), processors);
}

std::string capture_to_json(const CaptureBundle& b) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"" << kSchema << "\",\n";
  os << "  \"model\": \"" << json_escape(b.model) << "\",\n";
  os << "  \"policy\": \"" << to_string(b.policy) << "\",\n";
  os << "  \"processors\": " << b.processors << ",\n";
  os << "  \"horizon_limit\": " << b.horizon_limit << ",\n";
  os << "  \"seed\": " << b.seed << ",\n";
  if (b.allowance_ticks.has_value()) {
    os << "  \"allowance_ticks\": " << *b.allowance_ticks << ",\n";
  }

  os << "  \"yields\": {\"kind\": \"" << json_escape(b.yields.kind) << "\"";
  if (b.yields.kind == "fixed") {
    os << ", \"delta_ticks\": " << b.yields.delta_ticks;
  } else if (b.yields.kind == "bern") {
    os << ", \"seed\": " << b.yields.seed << ", \"num\": " << b.yields.num
       << ", \"den\": " << b.yields.den
       << ", \"min_ticks\": " << b.yields.min_ticks
       << ", \"max_ticks\": " << b.yields.max_ticks;
  } else if (b.yields.kind == "scripted") {
    os << ", \"costs\": [";
    for (std::size_t i = 0; i < b.yields.costs.size(); ++i) {
      const auto& c = b.yields.costs[i];
      os << (i == 0 ? "" : ", ") << '[' << c[0] << ", " << c[1] << ", "
         << c[2] << ']';
    }
    os << ']';
  }
  os << "},\n";

  os << "  \"tasks\": [\n";
  for (std::size_t i = 0; i < b.tasks.size(); ++i) {
    const CaptureBundle::TaskSpec& t = b.tasks[i];
    os << "    {\"name\": \"" << json_escape(t.name) << "\", \"w\": ["
       << t.we << ", " << t.wp << "], \"subtasks\": [";
    for (std::size_t s = 0; s < t.subtasks.size(); ++s) {
      const Task::SubtaskSpec& sub = t.subtasks[s];
      os << (s == 0 ? "" : ", ") << '[' << sub.index << ", " << sub.theta
         << ", " << sub.eligible << ']';
    }
    os << "]}" << (i + 1 < b.tasks.size() ? "," : "") << '\n';
  }
  os << "  ],\n";

  os << "  \"finding\": {\"kind\": \"" << to_string(b.finding.kind)
     << "\", \"task\": " << b.finding.ref.task
     << ", \"seq\": " << b.finding.ref.seq
     << ", \"at_ticks\": " << b.finding.at.raw_ticks() << ", \"detail\": \""
     << json_escape(b.finding.detail) << "\"},\n";

  os << "  \"trace_prefix\": [";
  for (std::size_t i = 0; i < b.trace_prefix.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ")
       << trace_event_json(b.trace_prefix[i]);
  }
  os << (b.trace_prefix.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

CaptureBundle capture_from_json(std::string_view text) {
  const JsonValue root = parse_json(text);
  PFAIR_REQUIRE_INPUT(root.is(JsonValue::Kind::kObject),
                      "capture bundle must be a JSON object");
  PFAIR_REQUIRE_INPUT(
      req_str(root, "schema") == kSchema,
      "unsupported capture schema \"" << req_str(root, "schema") << "\"");
  CaptureBundle b;
  b.model = req_str(root, "model");
  PFAIR_REQUIRE_INPUT(b.model == "sfq" || b.model == "dvq",
                      "capture model must be \"sfq\" or \"dvq\"");
  const auto policy = policy_from_string(req_str(root, "policy"));
  PFAIR_REQUIRE_INPUT(policy.has_value(),
                      "unknown policy \"" << req_str(root, "policy") << "\"");
  b.policy = *policy;
  b.processors = static_cast<int>(req_int(root, "processors"));
  b.horizon_limit = int_or(root, "horizon_limit", 0);
  b.seed = static_cast<std::uint64_t>(int_or(root, "seed", 0));
  if (root.find("allowance_ticks") != nullptr) {
    b.allowance_ticks = req_int(root, "allowance_ticks");
  }

  if (const JsonValue* y = root.find("yields"); y != nullptr) {
    PFAIR_REQUIRE_INPUT(y->is(JsonValue::Kind::kObject),
                        "capture field \"yields\" must be an object");
    b.yields.kind = req_str(*y, "kind");
    b.yields.delta_ticks = int_or(*y, "delta_ticks", 0);
    b.yields.seed = static_cast<std::uint64_t>(int_or(*y, "seed", 0));
    b.yields.num = int_or(*y, "num", 0);
    b.yields.den = int_or(*y, "den", 1);
    b.yields.min_ticks = int_or(*y, "min_ticks", 0);
    b.yields.max_ticks = int_or(*y, "max_ticks", 0);
    if (const JsonValue* costs = y->find("costs"); costs != nullptr) {
      PFAIR_REQUIRE_INPUT(costs->is(JsonValue::Kind::kArray),
                          "yield field \"costs\" must be an array");
      for (const JsonValue& c : costs->array) {
        PFAIR_REQUIRE_INPUT(
            c.is(JsonValue::Kind::kArray) && c.array.size() == 3,
            "scripted yield cost must be [task, seq, ticks]");
        b.yields.costs.push_back(
            {elem_int(c, 0), elem_int(c, 1), elem_int(c, 2)});
      }
    }
  }

  for (const JsonValue& t : req_array(root, "tasks").array) {
    PFAIR_REQUIRE_INPUT(t.is(JsonValue::Kind::kObject),
                        "capture task must be a JSON object");
    CaptureBundle::TaskSpec spec;
    spec.name = req_str(t, "name");
    const JsonValue& w = req_array(t, "w");
    PFAIR_REQUIRE_INPUT(w.array.size() == 2, "task weight must be [e, p]");
    spec.we = elem_int(w, 0);
    spec.wp = elem_int(w, 1);
    PFAIR_REQUIRE_INPUT(spec.we >= 1 && spec.we <= spec.wp,
                        "task weight must satisfy 1 <= e <= p");
    for (const JsonValue& s : req_array(t, "subtasks").array) {
      PFAIR_REQUIRE_INPUT(s.is(JsonValue::Kind::kArray) && s.array.size() == 3,
                          "subtask spec must be [index, theta, eligible]");
      spec.subtasks.push_back(Task::SubtaskSpec{
          elem_int(s, 0), elem_int(s, 1), elem_int(s, 2)});
    }
    b.tasks.push_back(std::move(spec));
  }

  const JsonValue& f = root.at("finding");
  PFAIR_REQUIRE_INPUT(f.is(JsonValue::Kind::kObject),
                      "capture field \"finding\" must be an object");
  const auto kind = violation_kind_from_string(req_str(f, "kind"));
  PFAIR_REQUIRE_INPUT(kind.has_value(),
                      "unknown finding kind \"" << req_str(f, "kind") << "\"");
  b.finding.kind = *kind;
  b.finding.ref = SubtaskRef{static_cast<std::int32_t>(int_or(f, "task", -1)),
                             static_cast<std::int32_t>(int_or(f, "seq", -1))};
  b.finding.at = Time::ticks(int_or(f, "at_ticks", 0));
  if (const JsonValue* d = f.find("detail"); d != nullptr) {
    PFAIR_REQUIRE_INPUT(d->is(JsonValue::Kind::kString),
                        "finding field \"detail\" must be a string");
    b.finding.detail = d->string;
  }

  if (const JsonValue* p = root.find("trace_prefix"); p != nullptr) {
    PFAIR_REQUIRE_INPUT(p->is(JsonValue::Kind::kArray),
                        "capture field \"trace_prefix\" must be an array");
    for (const JsonValue& e : p->array) {
      b.trace_prefix.push_back(trace_event_from_json(e));
    }
  }
  return b;
}

CounterexampleRecorder::CounterexampleRecorder(CaptureBundle prototype,
                                               std::size_t prefix_capacity)
    : proto_(std::move(prototype)),
      ring_(prefix_capacity == 0 ? 1 : prefix_capacity) {}

void CounterexampleRecorder::on_event(const TraceEvent& e) {
  if (!captured_) ring_.on_event(e);
}

void CounterexampleRecorder::record(const AuditFinding& f) {
  if (captured_) return;
  captured_ = true;
  proto_.finding = f;
  proto_.trace_prefix = ring_.snapshot();
}

const CaptureBundle& CounterexampleRecorder::bundle() const {
  PFAIR_REQUIRE(captured_, "no counterexample has been captured");
  return proto_;
}

ReplayResult replay_bundle(const CaptureBundle& b) {
  ReplayResult out;
  const TaskSystem sys = b.build_system();
  ValidityReport rep;
  if (b.model == "dvq") {
    const auto yields = b.yields.make();
    DvqOptions opts;
    opts.policy = b.policy;
    opts.horizon_limit = b.horizon_limit;
    const DvqSchedule sched = schedule_dvq_reference(sys, *yields, opts);
    rep = check_dvq_schedule(sys, sched,
                             b.allowance_ticks.has_value()
                                 ? Time::ticks(*b.allowance_ticks)
                                 : kQuantum);
  } else {
    SfqOptions opts;
    opts.policy = b.policy;
    opts.horizon_limit = b.horizon_limit;
    const SlotSchedule sched = schedule_sfq_reference(sys, opts);
    // Slot checks take the allowance in whole slots; round up so any
    // sub-slot allowance still forgives the slot it falls in.
    rep = check_slot_schedule(
        sys, sched,
        b.allowance_ticks.has_value()
            ? (*b.allowance_ticks + kTicksPerSlot - 1) / kTicksPerSlot
            : 0);
    const std::int64_t horizon =
        b.horizon_limit > 0 ? b.horizon_limit : default_horizon(sys);
    // Per-task lag scan, like lag_range but stopping once the task has
    // received all its subtasks: a finite task's fluid rate keeps
    // accruing after its work is exhausted, so past that point a lag
    // >= 1 is an artifact, not under-service (cf. the online auditor,
    // which drops exhausted tasks from its heap).
    for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
      const Task& tk = sys.task(k);
      const Rational w = tk.weight().value();
      if (w.is_zero() || tk.num_subtasks() == 0) continue;
      std::vector<bool> in_slot(static_cast<std::size_t>(horizon), false);
      for (std::int64_t s = 0; s < tk.num_subtasks(); ++s) {
        const SlotPlacement& p =
            sched.placement(SubtaskRef{static_cast<std::int32_t>(k),
                                       static_cast<std::int32_t>(s)});
        if (p.scheduled() && p.slot < horizon) {
          in_slot[static_cast<std::size_t>(p.slot)] = true;
        }
      }
      Rational cur;  // lag at t = 0 is 0
      std::int64_t served = 0;
      for (std::int64_t t = 0; t <= horizon; ++t) {
        if (!(cur > Rational(-1)) || !(cur < Rational(1))) {
          out.findings.push_back(AuditFinding{
              Violation::Kind::kLagBound,
              SubtaskRef{static_cast<std::int32_t>(k), -1},
              Time::slots(t),
              "lag = " + cur.str() + " leaves (-1, 1) at t = " +
                  std::to_string(t)});
          break;
        }
        if (served == tk.num_subtasks() || t == horizon) break;
        cur += w;
        if (in_slot[static_cast<std::size_t>(t)]) {
          cur -= Rational(1);
          ++served;
        }
      }
    }
  }
  for (const Violation& v : rep.violations) {
    out.findings.push_back(AuditFinding{v.kind, v.ref, Time(), v.detail});
  }
  for (const AuditFinding& f : out.findings) {
    if (f.kind == b.finding.kind) {
      out.reproduced = true;
      break;
    }
  }
  return out;
}

namespace {

// Removes task `victim`, remapping the finding's task index and any
// scripted yield entries; the trace prefix is dropped (stale indices).
CaptureBundle drop_task(const CaptureBundle& b, std::size_t victim) {
  CaptureBundle out = b;
  out.trace_prefix.clear();
  out.tasks.erase(out.tasks.begin() + static_cast<std::ptrdiff_t>(victim));
  const auto remap = [victim](std::int64_t t) {
    return t > static_cast<std::int64_t>(victim) ? t - 1 : t;
  };
  if (out.finding.ref.task >= 0) {
    out.finding.ref.task =
        static_cast<std::int32_t>(remap(out.finding.ref.task));
  }
  std::vector<std::array<std::int64_t, 3>> costs;
  costs.reserve(out.yields.costs.size());
  for (const auto& c : out.yields.costs) {
    if (c[0] == static_cast<std::int64_t>(victim)) continue;
    costs.push_back({remap(c[0]), c[1], c[2]});
  }
  out.yields.costs = std::move(costs);
  return out;
}

}  // namespace

CaptureBundle shrink_bundle(const CaptureBundle& b) {
  CaptureBundle best = b;
  if (!replay_bundle(best).reproduced) return best;
  best.trace_prefix.clear();

  // Pass 1: greedily drop tasks (never the finding's own) to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < best.tasks.size() && best.tasks.size() > 1;) {
      if (best.finding.ref.task == static_cast<std::int64_t>(i)) {
        ++i;
        continue;
      }
      CaptureBundle cand = drop_task(best, i);
      if (replay_bundle(cand).reproduced) {
        best = std::move(cand);
        changed = true;  // indices shifted; i now names the next task
      } else {
        ++i;
      }
    }
  }

  // Pass 2: truncate the horizon — smallest power-of-two horizon (from 4
  // slots) that still reproduces, if any beats the current one.
  const std::int64_t full = best.horizon_limit > 0
                                ? best.horizon_limit
                                : default_horizon(best.build_system());
  for (std::int64_t h = 4; h < full; h *= 2) {
    CaptureBundle cand = best;
    cand.horizon_limit = h;
    if (replay_bundle(cand).reproduced) {
      best = std::move(cand);
      break;
    }
  }
  return best;
}

}  // namespace pfair
