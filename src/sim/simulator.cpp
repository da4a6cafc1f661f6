#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "sim/sharded.hpp"
#include "sim/streaming.hpp"

namespace cdbp {

SimResult simulateOnline(const Instance& instance, OnlinePolicy& policy,
                         const SimOptions& options) {
  // sortedByArrival() orders by (arrival, id) with the instance's own
  // (dense) item ids, so binOf indexes straight into the Packing and
  // simultaneous departures tie-break on instance ids.
  if (options.engine == PlacementEngine::kSharded) {
    if (options.trace != nullptr || options.chromeTrace != nullptr) {
      throw std::invalid_argument(
          "simulateOnline: the sharded engine does not produce decision or "
          "chrome traces; use kIndexed for trace runs");
    }
    ShardedOptions shardedOptions;
    shardedOptions.threads = options.shardedThreads;
    shardedOptions.announce = options.announce;
    shardedOptions.capturePlacements = true;
    ShardedSimulator sim(policy, shardedOptions);
    for (const Item& r : instance.sortedByArrival()) sim.feed(r);
    ShardedResult sharded = sim.finish();
    if (sharded.binOf.size() < instance.size()) {
      sharded.binOf.resize(instance.size(), kUnassigned);
    }
    SimResult result;
    result.packing = Packing(instance, std::move(sharded.binOf));
    result.totalUsage = sharded.totalUsage;
    result.binsOpened = sharded.binsOpened;
    result.maxOpenBins = sharded.maxOpenBins;
    result.categoriesUsed = sharded.categoriesUsed;
    return result;
  }

  StreamOptions streamOptions;
  streamOptions.engine = options.engine;
  streamOptions.announce = options.announce;
  streamOptions.chromeTrace = options.chromeTrace;
  streamOptions.computeLowerBound = false;
  StreamEngine engine(policy, streamOptions);
  std::vector<BinId> binOf(instance.size(), kUnassigned);
  for (const Item& r : instance.sortedByArrival()) {
    Placement placed = engine.place(r);
    binOf[r.id] = placed.bin;
    if (options.trace) {
      options.trace->record({r.id, r.arrival(), placed.bin,
                             placed.openedNewBin, placed.category,
                             placed.openBinsBefore, placed.binLevelBefore});
    }
  }
  // Departures after the last arrival cannot change a placement, and the
  // Packing carries the usage, so the engine drains them (finish()) only
  // when a chrome trace wants its open-bin series to close at zero.
  if (options.chromeTrace) engine.finish();

  SimResult result;
  result.packing = Packing(instance, std::move(binOf));
  result.totalUsage = result.packing.totalUsage();
  result.binsOpened = engine.binsOpened();
  result.maxOpenBins = engine.maxOpenBins();
  result.categoriesUsed = engine.categoriesUsed();
  return result;
}

}  // namespace cdbp
