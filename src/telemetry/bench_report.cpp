#include "telemetry/bench_report.hpp"

#include <fstream>
#include <stdexcept>
#include <thread>

#include "io/json_writer.hpp"
#include "telemetry/clock.hpp"

namespace cdbp::telemetry {

namespace {

// Configure-time sha injected by the top-level CMakeLists; "unknown" when
// the tree was built outside git.
#ifndef CDBP_GIT_SHA
#define CDBP_GIT_SHA "unknown"
#endif

// The first "model name" in /proc/cpuinfo; "unknown" where there is none
// (non-Linux hosts, some ARM kernels).
std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

void writeHistogram(const HistogramSnapshot& hs, JsonWriter& w) {
  w.beginObject();
  w.key("count").value(hs.count);
  w.key("sum").value(hs.sum);
  w.key("min").value(hs.min);
  w.key("max").value(hs.max);
  w.key("mean").value(hs.mean());
  // [bucket floor, count] pairs; floor 0 is the exact-zero bucket.
  w.key("buckets").beginArray();
  for (const auto& [bucket, count] : hs.buckets) {
    w.beginArray()
        .value(Histogram::bucketFloor(bucket))
        .value(count)
        .endArray();
  }
  w.endArray();
  w.endObject();
}

}  // namespace

void writeRegistrySnapshot(const RegistrySnapshot& snap, JsonWriter& w) {
  w.beginObject();
  w.key("counters").beginObject();
  for (const auto& [name, value] : snap.counters) w.key(name).value(value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& [name, g] : snap.gauges) {
    w.key(name).beginObject();
    w.key("value").value(g.value);
    w.key("max").value(g.max);
    w.endObject();
  }
  w.endObject();
  w.key("histograms").beginObject();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name);
    writeHistogram(h, w);
  }
  w.endObject();
  w.endObject();
}

double BenchTimingSeries::itemsPerSecond() const {
  double mean = seconds_.mean();
  if (!(mean > 0)) return 0.0;
  return static_cast<double>(itemsPerRep_) / mean;
}

BenchReport::BenchReport(std::string benchName)
    : benchName_(std::move(benchName)),
      timestampUnixMicros_(wallclockUnixMicros()) {}

void BenchReport::setParam(const std::string& key, std::string_view value) {
  Param p;
  p.kind = Param::Kind::kString;
  p.s = std::string(value);
  params_.emplace_back(key, std::move(p));
}

void BenchReport::setParam(const std::string& key, bool value) {
  Param p;
  p.kind = Param::Kind::kBool;
  p.b = value;
  params_.emplace_back(key, std::move(p));
}

void BenchReport::setParam(const std::string& key, long value) {
  Param p;
  p.kind = Param::Kind::kInt;
  p.i = value;
  params_.emplace_back(key, std::move(p));
}

void BenchReport::setParam(const std::string& key, double value) {
  Param p;
  p.kind = Param::Kind::kDouble;
  p.d = value;
  params_.emplace_back(key, std::move(p));
}

BenchTimingSeries& BenchReport::addTiming(std::string name,
                                          std::uint64_t itemsPerRep) {
  timings_.emplace_back(std::move(name), itemsPerRep);
  return timings_.back();
}

void BenchReport::addTable(std::string name, const Table& table) {
  NamedTable t;
  t.name = std::move(name);
  t.columns = table.header();
  t.rows = table.rows();
  tables_.push_back(std::move(t));
}

void BenchReport::write(std::ostream& os) const {
  JsonWriter w(os, 2);
  w.beginObject();
  w.key("schema").value("cdbp-bench-report");
  w.key("schema_version").value(kBenchReportSchemaVersion);
  w.key("bench").value(benchName_);
  w.key("git_sha").value(CDBP_GIT_SHA);
  w.key("telemetry_enabled").value(kEnabled);
  w.key("nproc").value(std::thread::hardware_concurrency());
  w.key("cpu_model").value(cpuModel());
  w.key("timestamp_unix_us").value(timestampUnixMicros_);

  w.key("params").beginObject();
  for (const auto& [key, p] : params_) {
    w.key(key);
    switch (p.kind) {
      case Param::Kind::kString:
        w.value(p.s);
        break;
      case Param::Kind::kBool:
        w.value(p.b);
        break;
      case Param::Kind::kInt:
        w.value(p.i);
        break;
      case Param::Kind::kDouble:
        w.value(p.d);
        break;
    }
  }
  w.endObject();

  w.key("timings").beginArray();
  for (const BenchTimingSeries& t : timings_) {
    const SummaryStats& s = t.seconds();
    w.beginObject();
    w.key("name").value(t.name());
    w.key("items_per_rep").value(t.itemsPerRep());
    w.key("reps").value(static_cast<std::uint64_t>(s.count()));
    w.key("seconds").beginObject();
    w.key("mean").value(s.mean());
    w.key("stddev").value(s.stddev());
    w.key("min").value(s.min());
    w.key("max").value(s.max());
    w.key("p50").value(s.percentile(50.0));
    w.key("p90").value(s.percentile(90.0));
    w.endObject();
    w.key("items_per_second").value(t.itemsPerSecond());
    w.key("counters").beginObject();
    for (const auto& [name, delta] : t.counterDeltas()) {
      w.key(name).value(delta);
    }
    w.endObject();
    w.endObject();
  }
  w.endArray();

  w.key("tables").beginArray();
  for (const NamedTable& t : tables_) {
    w.beginObject();
    w.key("name").value(t.name);
    w.key("columns").beginArray();
    for (const std::string& c : t.columns) w.value(c);
    w.endArray();
    w.key("rows").beginArray();
    for (const auto& row : t.rows) {
      w.beginArray();
      for (const std::string& cell : row) w.value(cell);
      w.endArray();
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();

  w.key("registry");
  writeRegistrySnapshot(Registry::global().snapshot(), w);

  w.endObject();
  w.done();
  os << '\n';
}

std::string BenchReport::defaultPath() const {
  return "BENCH_" + benchName_ + ".json";
}

bool BenchReport::writeIfRequested(const Flags& flags,
                                   std::ostream& log) const {
  if (!flags.has("json")) return false;
  std::string path = flags.getString("json", "");
  if (path.empty()) path = defaultPath();
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("BenchReport: cannot open " + path +
                             " for writing");
  }
  write(out);
  log << "\n[bench-report] wrote " << path << '\n';
  return true;
}

}  // namespace cdbp::telemetry
