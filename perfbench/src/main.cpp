// perfbench_cdbp: one measured run of one workload of the cdbp benchmark.
//
//   perfbench_cdbp --workload replay|dense|serve|grid --seed N --seconds S
//                  --trace 0|1 --workdir DIR [--small] [--corrupt-reference]
//                  [--git-sha SHA]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then repeats measured iterations for S seconds and reports the trimmed
// mean over iterations of each end-to-end metric. --trace 1 alternates
// untraced and traced iterations for S seconds and reports the trimmed
// mean of each per-layer metric; its spans are written to DIR at exit.
// Every output is checked; the last line of stdout is the JSON result,
// and a failed check makes the exit code 1. See README.md.
#include <charconv>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// End-to-end metrics: every workload reports every one (README.md gives
// what each means per workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"jobs_per_s", "jobs/s", "higher"},
    {"wall_s", "s", "lower"},
    {"p50_us", "us", "lower"},
    {"usage_over_lb3", "ratio", "lower"},
    {"cpu_s", "s", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
};

// Per-layer metrics of the traced run: every workload reports every one,
// 0 where its layer does not run.
constexpr MetricDef kPerLayer[] = {
    {"latency.p99_us", "us", "lower"},
    {"trace_io.parse_s", "s", "lower"},
    {"trace_io.mb_per_s", "MB/s", "higher"},
    {"trace_io.records", "count", "higher"},
    {"sharded.feed_s", "s", "lower"},
    {"sharded.feed_blocked_s", "s", "lower"},
    {"sharded.finish_s", "s", "lower"},
    {"sharded.shards", "count", "higher"},
    {"sharded.epochs", "count", "lower"},
    {"sharded.busy_max_s", "s", "lower"},
    {"sharded.busy_imbalance", "ratio", "lower"},
    {"sharded.speedup_t1", "ratio", "higher"},
    {"online.place_s", "s", "lower"},
    {"online.shard_key_s", "s", "lower"},
    {"sim.fit_checks_per_job", "count", "lower"},
    {"streaming.drain_s", "s", "lower"},
    {"streaming.departures", "count", "higher"},
    {"streaming.commit_s", "s", "lower"},
    {"streaming.finish_s", "s", "lower"},
    {"simulator.batch_s", "s", "lower"},
    {"run_many.parallel_eff", "ratio", "higher"},
    {"core.lb3_s", "s", "lower"},
    {"offline.ddff_s", "s", "lower"},
    {"offline.dual_coloring_s", "s", "lower"},
    {"serve.client_cpu_s", "s", "lower"},
    {"serve.daemon_cpu_s", "s", "lower"},
    {"serve.daemon_cpu_us_per_job", "us", "lower"},
    {"serve.place_ns_p50", "ns", "lower"},
    {"serve.overhead_us", "us", "lower"},
    {"serve.bytes_per_job", "bytes", "lower"},
    {"serve.throttles", "count", "lower"},
    {"serve.loop_conn_imbalance", "ratio", "lower"},
    {"serve.scrape_p50_us", "us", "lower"},
    {"serve.call_s", "s", "lower"},
    {"serve.place_rtt_p50_us", "us", "lower"},
    {"serve.due_p50_us", "us", "lower"},
    {"serve.due_p99_us", "us", "lower"},
    {"harness.gen_lag_p99_us", "us", "lower"},
    {"harness.pacing_s", "s", "lower"},
    {"harness.trace_overhead", "ratio", "lower"},
    {"harness.unaccounted_frac", "fraction", "lower"},
    {"harness.traced_iterations", "count", "higher"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir;
  std::string gitSha = "unknown";
  bool small = false;
  bool corruptReference = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_cdbp: " << why << "\n"
            << "usage: perfbench_cdbp --workload replay|dense|serve|grid "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--small] "
               "[--corrupt-reference] [--git-sha SHA]\n";
  std::exit(2);
}

template <typename T>
T parseNumber(const std::string& flag, const std::string& text) {
  T value{};
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (flag == "--corrupt-reference") {
      args.corruptReference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parseNumber<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = parseNumber<double>(flag, value);
    } else if (flag == "--trace") {
      args.trace = parseNumber<int>(flag, value);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--git-sha") {
      args.gitSha = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (args.workdir.empty()) usage("--workdir is required");
  return args;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "replay") return makeReplay();
  if (name == "dense") return makeDense();
  if (name == "serve") return makeServe();
  if (name == "grid") return makeGrid();
  usage("unknown workload '" + name + "'");
}

std::string jsonNumber(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, end);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string provenanceJson(const Args& args, bool rssReset) {
  std::string out = "{";
  out += "\"workload\": " + jsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + jsonNumber(args.seconds);
  out += ", \"trace\": " + std::to_string(args.trace);
  out += ", \"small\": " + std::string(args.small ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + jsonString(cpuModel());
  out += ", \"compiler\": " + jsonString(PERFBENCH_COMPILER);
  out += ", \"flags\": " + jsonString(PERFBENCH_FLAGS);
  out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"cdbp_telemetry\": " + std::to_string(CDBP_TELEMETRY);
  out += ", \"git_sha\": " + jsonString(args.gitSha);
  out += ", \"peak_rss_scope\": " +
         jsonString(rssReset ? "iteration" : "process");
  return out + "}";
}

/// Share of iterations dropped at each end before averaging. The host's
/// single-thread speed switches between a fast and a slow state for a few
/// seconds at a time (replay's per-job parse time reads ≈ 0.4 or ≈ 0.6 µs),
/// so a median over iterations jumps from one state to the other when a run
/// spends about half its time in each; a mean moves with the share of time
/// spent in each, and the trim drops the odd stalled iteration.
constexpr double kIterationTrim = 0.1;

/// Element-wise trimmed mean over iterations of every metric they reported.
Metrics trimmedMeans(const std::vector<Metrics>& runs) {
  std::map<std::string, std::vector<double>> columns;
  for (const Metrics& run : runs) {
    for (const auto& [name, value] : run) columns[name].push_back(value);
  }
  Metrics out;
  for (auto& [name, values] : columns) {
    out[name] = trimmedMean(values, kIterationTrim);
  }
  return out;
}

void writeSpans(const std::string& path, const std::string& provenance) {
  std::ofstream out(path);
  out << "{\"provenance\": " << provenance << ",\n \"threads\": [";
  bool firstThread = true;
  for (const ThreadTrace* trace : allTraces()) {
    bool active = !trace->spans.empty();
    for (const LayerTotals& t : trace->layers) active = active || t.calls > 0;
    if (!active) continue;
    out << (firstThread ? "\n" : ",\n") << "  {\"thread\": "
        << jsonString(trace->label) << ", \"layers\": {";
    firstThread = false;
    bool firstLayer = true;
    for (std::size_t l = 0; l < trace->layers.size(); ++l) {
      const LayerTotals& t = trace->layers[l];
      if (t.calls == 0) continue;
      out << (firstLayer ? "" : ", ")
          << jsonString(layerName(static_cast<Layer>(l)))
          << ": {\"calls\": " << t.calls << ", \"total_ns\": " << t.totalNs
          << ", \"self_ns\": " << t.selfNs << "}";
      firstLayer = false;
    }
    out << "}, \"spans\": [";
    for (std::size_t s = 0; s < trace->spans.size(); ++s) {
      const SpanRecord& span = trace->spans[s];
      out << (s == 0 ? "" : ", ") << "{\"name\": "
          << jsonString(layerName(span.layer)) << ", \"start_ns\": "
          << span.startNs << ", \"end_ns\": " << span.endNs
          << ", \"parent\": " << span.parent << ", \"id\": " << span.id << "}";
    }
    out << "]}";
  }
  out << "\n]}\n";
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = makeWorkload(args.workload);
  RunConfig config;
  config.seed = args.seed;
  config.small = args.small;
  config.corruptReference = args.corruptReference;
  config.workdir = args.workdir;
  labelThread("main");

  // Set up several times when setup_s is reported (3 to 30 times, until
  // 3 s are spent): the median of several is steadier than one sample, and
  // each setup replaces the previous one. The set-ups of dense and grid
  // take 10-50 ms, and a median of 9 of them still moved by 0.2 between
  // runs.
  const std::size_t minSetups = args.trace == 0 ? 3 : 1;
  const std::size_t maxSetups = args.trace == 0 ? 30 : 1;
  std::vector<double> setupSeconds;
  double setupTotal = 0;
  while (setupSeconds.size() < minSetups ||
         (setupSeconds.size() < maxSetups && setupTotal < 3.0)) {
    workload->teardown();
    std::uint64_t t0 = nowNs();
    workload->setup(config);
    setupSeconds.push_back(secondsSince(t0));
    setupTotal += setupSeconds.back();
  }

  releaseFreeHeap();
  bool rssReset = resetPeakRss();
  std::string provenance = provenanceJson(args, rssReset);
  std::cout << "provenance " << provenance << "\n";

  Tally tally;
  std::vector<Metrics> runs;
  // One checked warm-up iteration: caches fill and lazy set-up (thread
  // pools, connection buffers, page cache) finishes before timing.
  bool ok = true;
  try {
    Metrics unused;
    workload->iterate(false, tally, unused);
  } catch (const std::exception& e) {
    tally.check(false, std::string("warm-up iteration threw: ") + e.what());
    ok = false;
  }
  std::uint64_t start = nowNs();
  const std::size_t minIterations = args.trace == 0 ? 3 : 1;
  while (ok &&
         (runs.size() < minIterations || secondsSince(start) < args.seconds)) {
    Metrics layers;
    try {
      if (args.trace == 0) {
        resetPeakRss();
        double cpu0 = processCpuSeconds();
        Metrics m = workload->iterate(false, tally, layers);
        m["cpu_s"] = processCpuSeconds() - cpu0;
        m["peak_rss_mb"] = peakRssMb();
        runs.push_back(m);
      } else {
        Metrics untraced = workload->iterate(false, tally, layers);
        clearTraces();
        setTracing(true);
        Metrics traced = workload->iterate(true, tally, layers);
        setTracing(false);
        layers["harness.trace_overhead"] =
            traced.at("wall_s") / untraced.at("wall_s");
        layers["latency.p99_us"] = untraced.at("p99_us");
        runs.push_back(layers);
      }
    } catch (const std::exception& e) {
      setTracing(false);
      tally.check(false, std::string("iteration threw: ") + e.what());
      break;
    }
  }
  workload->teardown();

  Metrics result = trimmedMeans(runs);
  std::vector<std::pair<const MetricDef*, double>> report;
  if (args.trace == 0) {
    result["setup_s"] = median(setupSeconds);
    for (const MetricDef& def : kEndToEnd) {
      auto it = result.find(def.name);
      report.emplace_back(&def, it == result.end() ? 0.0 : it->second);
    }
  } else {
    result["harness.traced_iterations"] = static_cast<double>(runs.size());
    std::string spansPath = args.workdir + "/spans-" + args.workload + "-" +
                            std::to_string(args.seed) + ".json";
    writeSpans(spansPath, provenance);
    std::cout << "spans written to " << spansPath << "\n";
    for (const MetricDef& def : kPerLayer) {
      auto it = result.find(def.name);
      report.emplace_back(&def, it == result.end() ? 0.0 : it->second);
    }
  }

  double failedFrac = tally.attempted == 0
                          ? 1.0
                          : static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted);
  bool correct = tally.failed == 0 && tally.attempted > 0 && !runs.empty();
  for (const std::string& f : tally.failures) std::cout << "FAILED " << f << "\n";
  std::cout << args.workload << " (" << runs.size()
            << (args.trace == 0 ? " iterations" : " traced iterations")
            << ", trimmed means; setup_s is a median):\n";
  for (const auto& [def, value] : report) {
    std::cout << "  " << def->name << " = " << jsonNumber(value) << " "
              << def->unit << " (" << def->better << " is better)\n";
  }
  std::cout << "  failed_frac = " << jsonNumber(failedFrac)
            << " fraction (lower is better; " << tally.failed << " of "
            << tally.attempted << " operations and checks)\n";

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i) {
    json += (i == 0 ? "" : ", ") + jsonString(report[i].first->name) +
            ": {\"value\": " + jsonNumber(report[i].second) +
            ", \"unit\": " + jsonString(report[i].first->unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_cdbp: " << e.what() << "\n";
    return 3;
  }
}
