#include "obs/prof.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"

namespace pfair::prof {

namespace detail {

constinit thread_local ThreadState* tl_state = nullptr;

struct PhaseAccum {
  std::int64_t count = 0;
  std::int64_t total_ticks = 0;
  std::int64_t self_ticks = 0;
};

struct ThreadState {
  std::thread::id tid;
  std::uint32_t index = 0;   ///< dense per-profiler thread index
  std::uint64_t epoch = 0;   ///< profiler construction tick
  std::array<PhaseAccum, static_cast<std::size_t>(kNumPhases)> accum{};
  Span* top = nullptr;       ///< innermost open span
  std::uint16_t depth = 0;
  std::vector<SpanRecord> ring;
  std::size_t ring_capacity = 0;
  std::uint64_t recorded = 0;  ///< spans pushed (>= ring.size() on overflow)

  void record(const SpanRecord& rec) {
    ++recorded;
    if (ring_capacity == 0) return;
    if (ring.size() < ring_capacity) {
      ring.push_back(rec);
    } else {
      // Overwrite round-robin: the ring always holds the newest
      // `ring_capacity` records (order restored at snapshot time).
      ring[static_cast<std::size_t>((recorded - 1) % ring_capacity)] = rec;
    }
  }
};

}  // namespace detail

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kParse: return "parse";
    case Phase::kConstruction: return "construction";
    case Phase::kKeyPrecompute: return "key_precompute";
    case Phase::kSimulate: return "simulate";
    case Phase::kCalendarWalk: return "calendar_walk";
    case Phase::kReadyHeap: return "ready_heap";
    case Phase::kDvqEvents: return "dvq_events";
    case Phase::kFingerprint: return "fingerprint";
    case Phase::kWarp: return "warp";
    case Phase::kAnalysis: return "analysis";
    case Phase::kRender: return "render";
    case Phase::kExport: return "export";
  }
  return "?";
}

#if !defined(PFAIR_PROF_CLOCK_TSC)
std::uint64_t clock_now() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

const char* clock_name() noexcept {
#if defined(PFAIR_PROF_CLOCK_TSC)
  return "tsc";
#else
  return "steady_clock";
#endif
}

namespace {

#if defined(PFAIR_PROF_CLOCK_TSC)
double calibrate_ns_per_tick() {
  using namespace std::chrono;
  // Three ~2 ms windows against steady_clock; the median shrugs off a
  // preemption landing inside one window.
  std::array<double, 3> samples{};
  for (double& s : samples) {
    const auto w0 = steady_clock::now();
    const std::uint64_t t0 = clock_now();
    std::this_thread::sleep_for(milliseconds(2));
    const std::uint64_t t1 = clock_now();
    const auto w1 = steady_clock::now();
    const auto ns = static_cast<double>(
        duration_cast<nanoseconds>(w1 - w0).count());
    s = t1 > t0 ? ns / static_cast<double>(t1 - t0) : 1.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}
#endif

}  // namespace

double ns_per_tick() {
#if defined(PFAIR_PROF_CLOCK_TSC)
  static const double v = calibrate_ns_per_tick();
  return v;
#else
  return 1.0;
#endif
}

void Span::begin(Phase phase) noexcept {
  phase_ = phase;
  parent_ = st_->top;
  st_->top = this;
  ++st_->depth;
  child_ticks_ = 0;
  start_ = clock_now();
}

void Span::end() noexcept {
  const std::uint64_t now = clock_now();
  detail::ThreadState* st = st_;
  const std::uint64_t dur = now >= start_ ? now - start_ : 0;
  st->top = parent_;
  --st->depth;
  if (parent_ != nullptr) parent_->child_ticks_ += dur;
  detail::PhaseAccum& a =
      st->accum[static_cast<std::size_t>(static_cast<std::uint8_t>(phase_))];
  ++a.count;
  a.total_ticks += static_cast<std::int64_t>(dur);
  // Self time never goes negative even if a child overlapped a clock
  // hiccup: clamp children to the parent's duration.
  a.self_ticks +=
      static_cast<std::int64_t>(dur - std::min(child_ticks_, dur));
  st->record(SpanRecord{phase_, st->depth, st->index,
                        start_ - st->epoch, dur});
}

Profiler::Profiler(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity), epoch_(clock_now()) {}

Profiler::~Profiler() = default;

detail::ThreadState* Profiler::state_for_current_thread() {
  const std::thread::id tid = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& st : states_) {
    if (st->tid == tid) return st.get();
  }
  auto st = std::make_unique<detail::ThreadState>();
  st->tid = tid;
  st->index = static_cast<std::uint32_t>(states_.size());
  st->epoch = epoch_;
  st->ring_capacity = ring_capacity_;
  st->ring.reserve(std::min<std::size_t>(ring_capacity_, 1024));
  states_.push_back(std::move(st));
  return states_.back().get();
}

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot snap;
  snap.clock = clock_name();
  snap.ns_per_tick = prof::ns_per_tick();
  std::array<detail::PhaseAccum, static_cast<std::size_t>(kNumPhases)>
      merged{};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snap.threads = static_cast<int>(states_.size());
    for (const auto& st : states_) {
      for (std::size_t p = 0; p < merged.size(); ++p) {
        merged[p].count += st->accum[p].count;
        merged[p].total_ticks += st->accum[p].total_ticks;
        merged[p].self_ticks += st->accum[p].self_ticks;
      }
      snap.spans_recorded += st->recorded;
      snap.spans_dropped += st->recorded - st->ring.size();
      snap.spans.insert(snap.spans.end(), st->ring.begin(), st->ring.end());
    }
  }
  for (std::size_t p = 0; p < merged.size(); ++p) {
    if (merged[p].count == 0) continue;
    ProfileSnapshot::PhaseEntry e;
    e.phase = static_cast<Phase>(p);
    e.count = merged[p].count;
    e.total_ticks = merged[p].total_ticks;
    e.self_ticks = merged[p].self_ticks;
    e.total_ns = static_cast<double>(e.total_ticks) * snap.ns_per_tick;
    e.self_ns = static_cast<double>(e.self_ticks) * snap.ns_per_tick;
    snap.phases.push_back(e);
  }
  std::sort(snap.spans.begin(), snap.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ticks != b.start_ticks) {
                return a.start_ticks < b.start_ticks;
              }
              return a.thread < b.thread;
            });
  return snap;
}

ProfScope::ProfScope(Profiler* p) : prev_(detail::tl_state) {
  installed_ = true;
  detail::tl_state = p != nullptr ? p->state_for_current_thread() : nullptr;
}

ProfScope::~ProfScope() {
  if (installed_) detail::tl_state = prev_;
}

double ProfileSnapshot::attributed_ns() const {
  double s = 0.0;
  for (const PhaseEntry& e : phases) s += e.self_ns;
  return s;
}

const ProfileSnapshot::PhaseEntry* ProfileSnapshot::find(Phase p) const {
  for (const PhaseEntry& e : phases) {
    if (e.phase == p) return &e;
  }
  return nullptr;
}

std::string ProfileSnapshot::table() const {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-16s %10s %12s %12s\n", "phase",
                "count", "total (ms)", "self (ms)");
  os << line;
  for (const PhaseEntry& e : phases) {
    std::snprintf(line, sizeof line, "%-16s %10lld %12.3f %12.3f\n",
                  to_string(e.phase), static_cast<long long>(e.count),
                  e.total_ns / 1e6, e.self_ns / 1e6);
    os << line;
  }
  return os.str();
}

namespace {

std::string fmt_ns(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

std::string profile_to_json(const ProfileSnapshot& snap, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  const std::string pad4 = pad2 + "  ";
  std::ostringstream os;
  os << "{\n";
  os << pad2 << R"("clock": ")" << snap.clock << "\",\n";
  char npt[32];
  std::snprintf(npt, sizeof npt, "%.6g", snap.ns_per_tick);
  os << pad2 << R"("ns_per_tick": )" << npt << ",\n";
  os << pad2 << R"("threads": )" << snap.threads << ",\n";
  os << pad2 << R"("spans_recorded": )" << snap.spans_recorded << ",\n";
  os << pad2 << R"("spans_dropped": )" << snap.spans_dropped << ",\n";
  os << pad2 << R"("phases": {)";
  bool first = true;
  for (const ProfileSnapshot::PhaseEntry& e : snap.phases) {
    if (!first) os << ",";
    first = false;
    os << "\n"
       << pad4 << '"' << to_string(e.phase) << R"(": {"count": )" << e.count
       << R"(, "total_ns": )" << fmt_ns(e.total_ns) << R"(, "self_ns": )"
       << fmt_ns(e.self_ns) << "}";
  }
  if (!first) os << "\n" << pad2;
  os << "}\n" << pad << "}";
  return os.str();
}

void publish_profile(const ProfileSnapshot& snap, MetricsRegistry& reg) {
  for (const ProfileSnapshot::PhaseEntry& e : snap.phases) {
    const std::string base = std::string("prof.") + to_string(e.phase);
    reg.counter(base + ".count").add(e.count);
    reg.counter(base + ".total_ns")
        .add(static_cast<std::int64_t>(e.total_ns));
    reg.counter(base + ".self_ns").add(static_cast<std::int64_t>(e.self_ns));
  }
  if (snap.spans_dropped > 0) {
    reg.counter("prof.spans_dropped")
        .add(static_cast<std::int64_t>(snap.spans_dropped));
  }
}

}  // namespace pfair::prof
