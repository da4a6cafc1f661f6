// replay: a cdbp-trace CSV file replayed through TraceArrivalSource into
// the epoch-sharded engine (kSharded, CDT-FF, 3 workers + the feed
// thread) — the stream_replay path. Parsing and the serial feed thread do
// most of the work; the fit query does little (CDT-FF keeps few bins open
// per departure window).
#include <filesystem>
#include <optional>

#include "harness.hpp"
#include "online/policy_factory.hpp"
#include "sim/sharded.hpp"
#include "sim/streaming.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kShardWorkers = 3;
constexpr std::size_t kLatencySampleEvery = 16;  // power of two
const char* const kPolicy = "cdt-ff";

struct Reference {
  std::size_t items = 0;
  double totalUsage = 0;
  std::size_t binsOpened = 0;
  std::size_t maxOpenBins = 0;
};

class Replay final : public Workload {
 public:
  void setup(const RunConfig& config) override {
    cdbp::WorkloadSpec spec;  // the default generator: Poisson rate 4, mu 16
    spec.numItems = config.small ? 20000 : 1000000;
    cdbp::Instance instance = cdbp::generateWorkload(spec, config.seed);
    context_ = cdbp::PolicyContext::forInstance(instance, config.seed);

    path_ = config.workdir + "/replay-" + std::to_string(config.seed) + ".csv";
    cdbp::saveTrace(instance, path_, "perfbench replay");
    fileBytes_ = static_cast<double>(std::filesystem::file_size(path_));

    // In-memory kIndexed reference on the same items, single thread.
    cdbp::InstanceArrivalSource source(instance);
    cdbp::PolicyPtr policy = cdbp::makePolicy(kPolicy, context_);
    cdbp::StreamOptions options;
    options.engine = cdbp::PlacementEngine::kIndexed;
    cdbp::StreamResult result = cdbp::simulateStream(source, *policy, options);
    reference_ = {result.items, result.totalUsage, result.binsOpened,
                  result.maxOpenBins};
    if (config.corruptReference) reference_.totalUsage += 1.0;
  }

  /// The trace is ~60 MB; each run removes its own.
  void teardown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  Metrics iterate(bool traced, Tally& tally, Metrics& layers) override {
    ProbeRegistry probes;
    cdbp::PolicyPtr policy = cdbp::makePolicy(kPolicy, context_);
    if (traced) {
      policy = std::make_unique<ProbePolicy>(std::move(policy), probes, true);
    }
    std::uint64_t fitChecks0 = registryCounter("sim.fit_checks");
    std::vector<double> latencyUs;

    std::uint64_t start = nowNs();
    Scope root(Layer::kIteration, true);
    double loopCpu0 = threadCpuSeconds();
    cdbp::TraceArrivalSource source(path_);
    cdbp::ShardedOptions options;
    options.threads = kShardWorkers;
    options.computeLowerBound = true;
    cdbp::ShardedSimulator sim(*policy, options);
    cdbp::StreamItem next;
    cdbp::ItemId id = 0;
    std::optional<CpuTurn> turn;
    for (;;) {
      bool sample = (id & (kLatencySampleEvery - 1)) == 0;
      std::uint64_t t0 = sample ? nowNs() : 0;
      bool more;
      {
        Scope scope(Layer::kTraceParse);
        more = source.next(next);
      }
      if (!more) break;
      {
        Scope scope(Layer::kShardedFeed);
        sim.feed(cdbp::Item(id, next.size, next.arrival, next.departure));
      }
      if (!turn) turn.emplace(turns_++);  // the first feed started the workers
      if (sample) latencyUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
      ++id;
    }
    double loopWall = secondsSince(start);
    double loopCpu = threadCpuSeconds() - loopCpu0;
    cdbp::ShardedResult result;
    {
      Scope scope(Layer::kShardedFinish);
      result = sim.finish();
    }
    root.stop();
    double wall = secondsSince(start);

    checkAgainstReference(tally, "sharded replay", result.items,
                          result.totalUsage, result.binsOpened,
                          result.maxOpenBins);
    tally.check(result.lb3 > 0 && result.totalUsage >= result.lb3,
                "replay: usage below LB3");
    tally.ops(result.items);

    Metrics m;
    m["wall_s"] = wall;
    m["jobs_per_s"] = static_cast<double>(result.items) / wall;
    m["p50_us"] = percentile(latencyUs, 50);
    m["p99_us"] = percentile(latencyUs, 99);
    m["usage_over_lb3"] = result.totalUsage / result.lb3;
    if (!traced) {
      lastUntracedWall_ = wall;
      return m;
    }

    double items = static_cast<double>(result.items);
    LayerTotals parse = layerTotals(Layer::kTraceParse);
    LayerTotals feed = layerTotals(Layer::kShardedFeed);
    double parseS = static_cast<double>(parse.selfNs) / 1e9;
    layers["trace_io.parse_s"] = parseS;
    layers["trace_io.mb_per_s"] = parseS > 0 ? fileBytes_ / parseS / 1e6 : 0;
    layers["trace_io.records"] = static_cast<double>(parse.calls);
    layers["sharded.feed_s"] = static_cast<double>(feed.totalNs) / 1e9;
    layers["sharded.feed_blocked_s"] = std::max(0.0, loopWall - loopCpu);
    layers["sharded.finish_s"] =
        static_cast<double>(layerTotals(Layer::kShardedFinish).totalNs) / 1e9;
    layers["sharded.shards"] = static_cast<double>(result.shards);
    layers["sharded.epochs"] = static_cast<double>(result.epochs);

    // Per-shard policy time from each clone's own counters.
    double busyMax = 0, busySum = 0, busyShards = 0;
    for (const ProbeCounters& c : probes.snapshot()) {
      if (c.places == 0) continue;
      double busy = static_cast<double>(c.placeNs) / 1e9;
      busyMax = std::max(busyMax, busy);
      busySum += busy;
      busyShards += 1;
    }
    layers["sharded.busy_max_s"] = busyMax;
    layers["sharded.busy_imbalance"] =
        busySum > 0 ? busyMax / (busySum / busyShards) : 0;
    layers["online.place_s"] =
        static_cast<double>(layerTotals(Layer::kPolicyPlace).selfNs) / 1e9;
    layers["online.shard_key_s"] =
        static_cast<double>(layerTotals(Layer::kShardKey).selfNs) / 1e9;
    layers["sim.fit_checks_per_job"] =
        static_cast<double>(registryCounter("sim.fit_checks") - fitChecks0) /
        items;
    layers["harness.unaccounted_frac"] =
        unaccountedShare(threadTrace(), Layer::kIteration);

    // The same trace on kIndexed with one thread: the sharded speed-up.
    std::uint64_t t1Start = nowNs();
    cdbp::TraceArrivalSource t1Source(path_);
    cdbp::PolicyPtr t1Policy = cdbp::makePolicy(kPolicy, context_);
    cdbp::StreamOptions t1Options;
    t1Options.engine = cdbp::PlacementEngine::kIndexed;
    cdbp::StreamResult t1 = cdbp::simulateStream(t1Source, *t1Policy, t1Options);
    double t1Wall = secondsSince(t1Start);
    checkAgainstReference(tally, "kIndexed replay", t1.items, t1.totalUsage,
                          t1.binsOpened, t1.maxOpenBins);
    layers["sharded.speedup_t1"] =
        lastUntracedWall_ > 0 ? t1Wall / lastUntracedWall_ : 0;
    return m;
  }

 private:
  void checkAgainstReference(Tally& tally, const std::string& what,
                             std::size_t items, double usage,
                             std::size_t opened, std::size_t maxOpen) const {
    tally.check(items == reference_.items, what + ": item count differs");
    tally.check(usage == reference_.totalUsage,
                what + ": totalUsage differs from the in-memory reference");
    tally.check(opened == reference_.binsOpened,
                what + ": binsOpened differs from the in-memory reference");
    tally.check(maxOpen == reference_.maxOpenBins,
                what + ": maxOpenBins differs from the in-memory reference");
  }

  cdbp::PolicyContext context_;
  std::string path_;
  double fileBytes_ = 0;
  Reference reference_;
  double lastUntracedWall_ = 0;
  std::size_t turns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeReplay() { return std::make_unique<Replay>(); }

}  // namespace perfbench
