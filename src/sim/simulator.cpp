#include "sim/simulator.hpp"

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
  streamOptions.computeLowerBound = false;
  StreamEngine engine(policy, streamOptions);
  std::vector<BinId> binOf(instance.size(), kUnassigned);
  for (const Item& r : instance.sortedByArrival()) {
    binOf[r.id] = engine.place(r).bin;
  }
  // Departures after the last arrival cannot change a placement, and the
  // Packing carries the usage, so the engine is never drained (finish()).

  SimResult result;
  result.packing = Packing(instance, std::move(binOf));
  result.totalUsage = result.packing.totalUsage();
  result.binsOpened = engine.binsOpened();
  result.maxOpenBins = engine.maxOpenBins();
  result.categoriesUsed = engine.categoriesUsed();
  return result;
}

}  // namespace cdbp
