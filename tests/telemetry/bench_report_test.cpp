#include "telemetry/bench_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/json_writer.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace cdbp::telemetry {
namespace {

Flags makeFlags(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  for (std::string& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchReport, DocumentHasSchemaHeader) {
  BenchReport report("unit");
  std::ostringstream os;
  report.write(os);
  std::string out = os.str();
  EXPECT_NE(out.find("\"schema\": \"cdbp-bench-report\""), std::string::npos);
  EXPECT_NE(out.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(out.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(out.find("\"nproc\": "), std::string::npos) << out;
  EXPECT_NE(out.find("\"cpu_model\": \""), std::string::npos) << out;
  EXPECT_NE(out.find("\"registry\""), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

TEST(BenchReport, ParamsKeepTheirJsonTypes) {
  BenchReport report("unit");
  report.setParam("items", 2000);
  report.setParam("mu", 16.5);
  report.setParam("csv", true);
  report.setParam("filter", "Ddff");
  std::ostringstream os;
  report.write(os);
  std::string out = os.str();
  EXPECT_NE(out.find("\"items\": 2000"), std::string::npos) << out;
  EXPECT_NE(out.find("\"mu\": 16.5"), std::string::npos) << out;
  EXPECT_NE(out.find("\"csv\": true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"filter\": \"Ddff\""), std::string::npos) << out;
}

TEST(BenchReport, TablesEmbedColumnsAndRows) {
  BenchReport report("unit");
  Table table({"mu", "ratio"});
  table.addRow({"2", "1.125"});
  table.addRow({"8", "1.25"});
  report.addTable("ratios", table);
  std::ostringstream os;
  report.write(os);
  std::string out = os.str();
  EXPECT_NE(out.find("\"name\": \"ratios\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"columns\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"1.125\""), std::string::npos) << out;
}

TEST(BenchReport, TimingSeriesStats) {
  BenchReport report("unit");
  BenchTimingSeries& series = report.addTiming("FF/1000", 1000);
  series.addRepSeconds(0.5);
  series.addRepSeconds(0.5);
  EXPECT_DOUBLE_EQ(series.itemsPerSecond(), 2000.0);
  series.setCounterDeltas({{"sim.fit_checks", 42}});
  std::ostringstream os;
  report.write(os);
  std::string out = os.str();
  EXPECT_NE(out.find("\"FF/1000\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"sim.fit_checks\": 42"), std::string::npos) << out;
}

TEST(BenchReport, EmptyTimingSeriesHasZeroThroughput) {
  BenchReport report("unit");
  EXPECT_DOUBLE_EQ(report.addTiming("empty", 10).itemsPerSecond(), 0.0);
}

TEST(BenchReport, DefaultPathFollowsConvention) {
  EXPECT_EQ(BenchReport("fig8").defaultPath(), "BENCH_fig8.json");
}

TEST(BenchReport, WriteIfRequestedNoFlagIsANoOp) {
  BenchReport report("unit");
  Flags flags = makeFlags({});
  std::ostringstream log;
  EXPECT_FALSE(report.writeIfRequested(flags, log));
  EXPECT_TRUE(log.str().empty());
}

TEST(BenchReport, WriteIfRequestedWritesToExplicitPath) {
  BenchReport report("unit");
  std::string path = ::testing::TempDir() + "cdbp_bench_report_test.json";
  Flags flags = makeFlags({"--json=" + path});
  std::ostringstream log;
  EXPECT_TRUE(report.writeIfRequested(flags, log));
  EXPECT_NE(log.str().find(path), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("cdbp-bench-report"), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

TEST(BenchReport, WriteRegistrySnapshotSection) {
  Registry reg;
  reg.counter("c").add(3);
  reg.gauge("g").set(2);
  reg.histogram("h").record(9);
  RegistrySnapshot snap = reg.snapshot();
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.beginObject().key("registry");
  writeRegistrySnapshot(snap, w);
  w.endObject();
  w.done();
  std::string out = os.str();
  EXPECT_NE(out.find("\"counters\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"gauges\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"histograms\""), std::string::npos) << out;
  if constexpr (kEnabled) {
    EXPECT_NE(out.find("\"c\":3"), std::string::npos) << out;
  }
}

}  // namespace
}  // namespace cdbp::telemetry
