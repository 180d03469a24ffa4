// The committed performance baseline must exist and parse.  A baseline
// that silently vanished (ignored by .gitignore, deleted, renamed) once
// left scripts/perf_guard.py with nothing to compare against; this test
// loads the exact file the guard names and checks its schema: a
// pfair-perf-baseline-v1 bundle holding the box fingerprint and one
// pfair-bench-v1 report per bench the guard runs.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "io/json.hpp"

namespace pfair {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_bench_report(const JsonValue& r, const std::string& name) {
  SCOPED_TRACE(name);
  for (const char* key : {"schema", "bench", "git", "box", "ok",
                          "exit_code", "repetitions", "wall_ms", "values",
                          "cases", "profile", "metrics"}) {
    ASSERT_NE(r.find(key), nullptr) << "missing " << key;
  }
  EXPECT_EQ(r.at("schema").string, "pfair-bench-v1");
  EXPECT_TRUE(r.at("ok").boolean);
  for (const char* key : {"min", "median", "max", "all"}) {
    EXPECT_NE(r.at("wall_ms").find(key), nullptr) << "wall_ms." << key;
  }
  ASSERT_TRUE(r.at("cases").is(JsonValue::Kind::kArray));
  for (const JsonValue& c : r.at("cases").array) {
    EXPECT_TRUE(c.at("name").is(JsonValue::Kind::kString));
    EXPECT_TRUE(c.at("ns_per_op").is(JsonValue::Kind::kNumber));
  }
}

TEST(PerfBaseline, GuardNamesACommittedBundle) {
  const std::string root = PFAIR_SOURCE_DIR;
  const std::string guard = read_file(root + "/scripts/perf_guard.py");
  std::smatch m;
  ASSERT_TRUE(std::regex_search(
      guard, m,
      std::regex(R"re(BASELINE = os\.path\.join\(REPO, "([^"]+)"\))re")))
      << "perf_guard.py no longer names its baseline the expected way";
  const std::string path = root + "/" + m[1].str();

  const JsonValue bundle = parse_json(read_file(path));
  EXPECT_EQ(bundle.at("schema").string, "pfair-perf-baseline-v1");
  EXPECT_TRUE(bundle.at("tolerance").is(JsonValue::Kind::kNumber));
  // The box the baseline was measured on, so a check elsewhere can warn
  // instead of comparing blindly.
  const JsonValue* box = bundle.find("box");
  ASSERT_NE(box, nullptr) << m[1].str() << " lacks the box fingerprint";
  EXPECT_TRUE(box->at("cores").is(JsonValue::Kind::kNumber));
  for (const char* key : {"simd", "compiler", "build_type"}) {
    EXPECT_TRUE(box->at(key).is(JsonValue::Kind::kString)) << "box." << key;
  }
  const JsonValue& reports = bundle.at("reports");
  ASSERT_TRUE(reports.is(JsonValue::Kind::kObject));

  // Every bench the guard runs has its report in the bundle.
  const std::regex bench_entry(R"re(\(\s*"bench_\w+",\s*"(\w+)")re");
  int benches = 0;
  for (auto it = std::sregex_iterator(guard.begin(), guard.end(),
                                      bench_entry);
       it != std::sregex_iterator(); ++it) {
    ++benches;
    const std::string name = (*it)[1].str();
    const JsonValue* r = reports.find(name);
    ASSERT_NE(r, nullptr) << m[1].str() << " lacks the " << name
                          << " report";
    expect_bench_report(*r, name);
  }
  EXPECT_GT(benches, 0) << "no BENCHES entries found in perf_guard.py";
}

}  // namespace
}  // namespace pfair
