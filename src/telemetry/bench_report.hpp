// Machine-readable bench reports (the BENCH_*.json perf trajectory).
//
// Every bench/bench_*.cpp main builds one BenchReport: run parameters,
// result tables, optional repetition timing series, and a snapshot of the
// telemetry registry. `--json=PATH` (or bare `--json` for the default
// BENCH_<name>.json) writes the versioned document; without the flag the
// report costs nothing beyond its in-memory bookkeeping.
//
// Schema (DESIGN.md §8.3), version 1:
//   {
//     "schema": "cdbp-bench-report", "schema_version": 1,
//     "bench": "<name>", "git_sha": "<configure-time sha|unknown>",
//     "telemetry_enabled": bool, "nproc": int,
//     "cpu_model": "<first /proc/cpuinfo model name|unknown>",
//     "timestamp_unix_us": int,
//     "params": { "<flag>": string|number|bool, ... },
//     "timings": [ { "name", "items_per_rep", "reps",
//                    "seconds": {mean,stddev,min,max,p50,p90},
//                    "items_per_second", "counters": {name: delta} } ],
//     "tables": [ { "name", "columns": [..], "rows": [[cell,..],..] } ],
//     "registry": { "counters": {..}, "gauges": {..}, "histograms": {..} }
//   }
// Table cells are the pre-formatted strings the human tables print, so the
// JSON mirrors exactly what EXPERIMENTS.md quotes.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace cdbp {
class JsonWriter;
}

namespace cdbp::telemetry {

inline constexpr int kBenchReportSchemaVersion = 1;

/// Repetition timings of one named benchmark within a report.
class BenchTimingSeries {
 public:
  BenchTimingSeries(std::string name, std::uint64_t itemsPerRep)
      : name_(std::move(name)), itemsPerRep_(itemsPerRep) {}

  void addRepSeconds(double seconds) { seconds_.add(seconds); }

  /// Registry counter increments attributed to this benchmark
  /// (diffCounters of snapshots taken around the timed reps).
  void setCounterDeltas(
      std::vector<std::pair<std::string, std::uint64_t>> deltas) {
    counterDeltas_ = std::move(deltas);
  }

  const std::string& name() const { return name_; }
  std::uint64_t itemsPerRep() const { return itemsPerRep_; }
  const SummaryStats& seconds() const { return seconds_; }
  const std::vector<std::pair<std::string, std::uint64_t>>& counterDeltas()
      const {
    return counterDeltas_;
  }

  /// Mean throughput over the recorded reps; 0 when nothing was recorded.
  double itemsPerSecond() const;

 private:
  std::string name_;
  std::uint64_t itemsPerRep_;
  SummaryStats seconds_;
  std::vector<std::pair<std::string, std::uint64_t>> counterDeltas_;
};

class BenchReport {
 public:
  /// `benchName` is the "<name>" in BENCH_<name>.json — by convention the
  /// binary name without the bench_ prefix ("throughput", "fig8", ...).
  explicit BenchReport(std::string benchName);

  void setParam(const std::string& key, std::string_view value);
  void setParam(const std::string& key, const char* value) {
    setParam(key, std::string_view(value));
  }
  void setParam(const std::string& key, bool value);
  void setParam(const std::string& key, int value) {
    setParam(key, static_cast<long>(value));
  }
  void setParam(const std::string& key, long value);
  void setParam(const std::string& key, unsigned long value) {
    setParam(key, static_cast<long>(value));
  }
  void setParam(const std::string& key, double value);

  /// Adds a repetition-timing series; the reference stays valid for the
  /// report's lifetime.
  BenchTimingSeries& addTiming(std::string name, std::uint64_t itemsPerRep);

  /// Embeds a rendered result table (columns + stringly-typed rows).
  void addTable(std::string name, const Table& table);

  /// Writes the full JSON document (pretty-printed, trailing newline).
  /// Takes the registry snapshot at call time.
  void write(std::ostream& os) const;

  /// Handles the `--json[=PATH]` flag: writes the report (default path
  /// BENCH_<name>.json) and notes the destination on `log`. Returns false
  /// without touching the filesystem when the flag is absent.
  bool writeIfRequested(const Flags& flags, std::ostream& log) const;

  /// The default output path, BENCH_<name>.json.
  std::string defaultPath() const;

 private:
  struct Param {
    enum class Kind { kString, kBool, kInt, kDouble };
    Kind kind = Kind::kString;
    std::string s;
    bool b = false;
    long i = 0;
    double d = 0;
  };

  std::string benchName_;
  std::int64_t timestampUnixMicros_;
  std::vector<std::pair<std::string, Param>> params_;
  std::vector<BenchTimingSeries> timings_;
  struct NamedTable {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<NamedTable> tables_;
};

/// Serializes a registry snapshot under the current writer position (the
/// caller has emitted the surrounding key). Shared by BenchReport and the
/// registry tests.
void writeRegistrySnapshot(const RegistrySnapshot& snap, JsonWriter& w);

}  // namespace cdbp::telemetry
