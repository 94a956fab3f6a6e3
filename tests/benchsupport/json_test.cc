// Tests for the machine-readable benchmark report: JSON escaping/structure, file
// round-trip, and --json CLI parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/benchsupport/runner.h"
#include "src/benchsupport/table.h"

namespace spectm {
namespace {

BenchRecord SampleRecord() {
  BenchRecord r;
  r.variant = "orec-short";
  r.clock = "gv4";
  r.threads = 4;
  r.lookup_pct = 10;
  r.ops_per_sec = 1234567.5;
  r.abort_rate = 0.03125;
  r.commits = 1000;
  r.aborts = 32;
  r.duration_s = 0.9;
  return r;
}

TEST(JsonReport, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonReport::Escape("plain"), "plain");
  EXPECT_EQ(JsonReport::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonReport::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonReport::Escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonReport::Escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonReport, EmitsSchemaAndAllFields) {
  JsonReport report("clock_scale");
  EXPECT_TRUE(report.Empty());
  report.Add(SampleRecord());
  EXPECT_FALSE(report.Empty());

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"clock_scale\""), std::string::npos);
  EXPECT_NE(json.find("\"variant\": \"orec-short\""), std::string::npos);
  EXPECT_NE(json.find("\"clock\": \"gv4\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"lookup_pct\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"ops_per_sec\": 1234567.5"), std::string::npos);
  EXPECT_NE(json.find("\"abort_rate\": 0.03125"), std::string::npos);
  EXPECT_NE(json.find("\"commits\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"aborts\": 32"), std::string::npos);
  EXPECT_NE(json.find("\"duration_s\": 0.9"), std::string::npos);
}

TEST(JsonReport, StrategyAndProbeFieldsAreOptIn) {
  // Benches that do not set the strategy/probe extensions keep their exact
  // historical record shape.
  JsonReport plain("plain");
  plain.Add(SampleRecord());
  const std::string before = plain.ToJson();
  EXPECT_EQ(before.find("\"workload\""), std::string::npos);
  EXPECT_EQ(before.find("\"strategy\""), std::string::npos);
  EXPECT_EQ(before.find("\"counter_skips\""), std::string::npos);

  BenchRecord r = SampleRecord();
  r.workload = "phase-shift";
  r.strategy = "counter-skip";
  r.has_probes = true;
  r.counter_skips = 7;
  r.validation_walks = 2;
  JsonReport extended("extended");
  extended.Add(r);
  const std::string json = extended.ToJson();
  EXPECT_NE(json.find("\"workload\": \"phase-shift\""), std::string::npos);
  EXPECT_NE(json.find("\"strategy\": \"counter-skip\""), std::string::npos);
  EXPECT_NE(json.find("\"counter_skips\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"validation_walks\": 2"), std::string::npos);
  EXPECT_EQ(json.find("\"bloom_skips\""), std::string::npos);
}

TEST(JsonReport, SchedFieldsAreOptIn) {
  // Records from scheduler-less builds keep their exact historical shape.
  JsonReport plain("plain");
  plain.Add(SampleRecord());
  const std::string before = plain.ToJson();
  EXPECT_EQ(before.find("\"explored_schedules\""), std::string::npos);
  EXPECT_EQ(before.find("\"preemption_bound\""), std::string::npos);
  EXPECT_EQ(before.find("\"canary_found\""), std::string::npos);

  BenchRecord r = SampleRecord();
  r.has_sched = true;
  r.explored_schedules = 144;
  r.preemption_bound = 2;
  r.canary_found = 1;
  JsonReport extended("extended");
  extended.Add(r);
  const std::string json = extended.ToJson();
  EXPECT_NE(json.find("\"explored_schedules\": 144"), std::string::npos);
  EXPECT_NE(json.find("\"preemption_bound\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"canary_found\": 1"), std::string::npos);
}

TEST(JsonReport, MvccFieldsAreOptIn) {
  // Records from benches that never touch the snapshot family keep their exact
  // historical shape.
  JsonReport plain("plain");
  plain.Add(SampleRecord());
  const std::string before = plain.ToJson();
  EXPECT_EQ(before.find("\"snapshot_reads\""), std::string::npos);
  EXPECT_EQ(before.find("\"version_hops\""), std::string::npos);
  EXPECT_EQ(before.find("\"versions_retired\""), std::string::npos);
  EXPECT_EQ(before.find("\"chain_splices\""), std::string::npos);
  EXPECT_EQ(before.find("\"snapshot_probe_aborts\""), std::string::npos);

  BenchRecord r = SampleRecord();
  r.has_mvcc = true;
  r.snapshot_reads = 320;
  r.version_hops = 64;
  r.versions_retired = 56;
  r.chain_splices = 9;
  JsonReport extended("extended");
  extended.Add(r);
  const std::string json = extended.ToJson();
  EXPECT_NE(json.find("\"snapshot_reads\": 320"), std::string::npos);
  EXPECT_NE(json.find("\"version_hops\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"versions_retired\": 56"), std::string::npos);
  EXPECT_NE(json.find("\"chain_splices\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_probe_aborts\": 0"), std::string::npos);
}

TEST(JsonReport, SvcFieldsAreOptIn) {
  // Records from benches predating the KV service layer keep their exact
  // historical shape.
  JsonReport plain("plain");
  plain.Add(SampleRecord());
  const std::string before = plain.ToJson();
  EXPECT_EQ(before.find("\"batch_size\""), std::string::npos);
  EXPECT_EQ(before.find("\"zipf_theta\""), std::string::npos);
  EXPECT_EQ(before.find("\"batches\""), std::string::npos);
  EXPECT_EQ(before.find("\"descriptors_per_op\""), std::string::npos);
  EXPECT_EQ(before.find("\"p50\""), std::string::npos);
  EXPECT_EQ(before.find("\"p99\""), std::string::npos);
  EXPECT_EQ(before.find("\"p999\""), std::string::npos);

  BenchRecord r = SampleRecord();
  r.has_svc = true;
  r.batch_size = 64;
  r.zipf_theta = 0.99;
  r.batches = 4096;
  r.descriptors_per_op = 0.015625;
  r.p50 = 2100;
  r.p99 = 9300;
  r.p999 = 17000;
  JsonReport extended("extended");
  extended.Add(r);
  const std::string json = extended.ToJson();
  EXPECT_NE(json.find("\"batch_size\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"zipf_theta\": 0.99"), std::string::npos);
  EXPECT_NE(json.find("\"batches\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"descriptors_per_op\": 0.015625"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 2100"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 9300"), std::string::npos);
  EXPECT_NE(json.find("\"p999\": 17000"), std::string::npos);
}

TEST(JsonReport, MultipleRecordsFormAnArray) {
  JsonReport report("b");
  report.Add(SampleRecord());
  BenchRecord second = SampleRecord();
  second.threads = 8;
  report.Add(second);
  const std::string json = report.ToJson();
  // Two objects, comma-separated, inside one array.
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 8"), std::string::npos);
  EXPECT_NE(json.find("},\n"), std::string::npos);
  EXPECT_NE(json.find("\"results\": ["), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity without a parser).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) {
      continue;
    }
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(JsonReport, WritesFile) {
  const std::string path = testing::TempDir() + "/spectm_json_test.json";
  JsonReport report("roundtrip");
  report.Add(SampleRecord());
  ASSERT_TRUE(report.WriteFile(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), report.ToJson());
  std::remove(path.c_str());
}

TEST(JsonPathFromArgs, ParsesSeparateAndInlineForms) {
  {
    const char* argv[] = {"bench", "--json", "out.json"};
    EXPECT_EQ(JsonPathFromArgs(3, const_cast<char**>(argv)), "out.json");
  }
  {
    const char* argv[] = {"bench", "--json=inline.json"};
    EXPECT_EQ(JsonPathFromArgs(2, const_cast<char**>(argv)), "inline.json");
  }
  {
    const char* argv[] = {"bench", "--threads", "4"};
    EXPECT_EQ(JsonPathFromArgs(3, const_cast<char**>(argv)), "");
    EXPECT_EQ(JsonPathFromArgs(3, const_cast<char**>(argv), "default.json"),
              "default.json");
  }
  {
    // Flag wins over the default even when other args surround it.
    const char* argv[] = {"bench", "-v", "--json", "x.json", "--runs", "3"};
    EXPECT_EQ(JsonPathFromArgs(6, const_cast<char**>(argv), "default.json"), "x.json");
  }
}

TEST(JsonPathFromArgs, EnvironmentFallback) {
  setenv("SPECTM_BENCH_JSON", "env.json", /*overwrite=*/1);
  const char* argv[] = {"bench"};
  EXPECT_EQ(JsonPathFromArgs(1, const_cast<char**>(argv), "default.json"), "env.json");
  const char* argv2[] = {"bench", "--json=flag.json"};
  EXPECT_EQ(JsonPathFromArgs(2, const_cast<char**>(argv2)), "flag.json")
      << "an explicit flag overrides the environment";
  unsetenv("SPECTM_BENCH_JSON");
  EXPECT_EQ(JsonPathFromArgs(1, const_cast<char**>(argv)), "");
}

}  // namespace
}  // namespace spectm
