// Online packing simulator over a whole Instance.
//
// Replays an instance in arrival order against an OnlinePolicy through the
// shared placement step (sim/placement_core.hpp, driven by a StreamEngine
// with the instance's own ids): bins close permanently when they empty and
// every decision is validated. Produces the final Packing plus run
// statistics.
#pragma once

#include <functional>
#include <vector>

#include "core/instance.hpp"
#include "core/packing.hpp"
#include "online/policy.hpp"

namespace cdbp {

struct SimOptions {
  /// Placement engine selection. Both engines produce bit-identical
  /// packings and SimResults (see DESIGN.md §9.1); kLinearScan exists for
  /// differential testing and honest before/after benchmarking.
  PlacementEngine engine = PlacementEngine::kIndexed;

  /// Optional transformation applied to each item before it is shown to the
  /// policy — used to model inaccurate duration estimates (§6 future work:
  /// the policy sees the perturbed departure, the system evolves with the
  /// true one). Sizes and arrivals must not change; the simulator enforces
  /// this.
  std::function<Item(const Item&)> announce;

  /// Worker threads for engine == kSharded (0 picks the hardware
  /// concurrency); ignored by the other engines.
  std::size_t shardedThreads = 0;
};

struct SimResult {
  Packing packing;
  Time totalUsage = 0;
  std::size_t binsOpened = 0;
  std::size_t maxOpenBins = 0;
  /// Number of categories the policy ended up using.
  std::size_t categoriesUsed = 0;
};

/// Runs `policy` (reset() first) over `instance`. Throws std::logic_error
/// if the policy returns a closed or infeasible bin.
SimResult simulateOnline(const Instance& instance, OnlinePolicy& policy,
                         const SimOptions& options = {});

}  // namespace cdbp
