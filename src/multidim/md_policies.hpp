// Online policies and the simulator for multi-dimensional MinUsageTime DBP.
//
// The classification ideas of §5 transfer verbatim: categories depend only
// on durations/departure times, not on sizes, so classify-by-departure-time
// and classify-by-duration wrap any vector fit rule. The fit rules
// implemented: First Fit (earliest-opened bin that fits in every
// dimension) and Dominant-Resource Best Fit (fitting bin minimizing the
// post-placement dominant coordinate — a vector-bin-packing heuristic).
//
// The simulator drives the shared placement step over the vector resource
// model (BasicPlacementCore<VectorResource>, sim/placement_core.hpp):
// policies query a BasicPlacementView<VectorResource>, so both placement
// engines, the decision validation and the sim.* telemetry counters are
// the scalar simulator's.
#pragma once

#include <memory>
#include <string>

#include "multidim/md_instance.hpp"
#include "multidim/md_packing.hpp"
#include "sim/placement_view.hpp"

namespace cdbp {

/// What a multidim policy sees: the vector instantiation of the generic
/// placement view (per-category first-fit / min-score queries plus the
/// open-list surface). Instantiated lazily from the headers.
using MdPlacementView = BasicPlacementView<VectorResource>;

class MdOnlinePolicy {
 public:
  virtual ~MdOnlinePolicy() = default;
  virtual std::string name() const = 0;
  /// Returns the bin to place into, or kNewBin; `category` (out) tags a
  /// fresh bin.
  virtual BinId place(const MdPlacementView& view, const MdItem& item,
                      int* category) = 0;
  virtual void reset() {}
};

using MdPolicyPtr = std::unique_ptr<MdOnlinePolicy>;

/// Which fit rule a policy uses within its categories.
enum class MdFitRule {
  kFirstFit,       ///< earliest-opened fitting bin
  kDominantFit,    ///< fitting bin minimizing the post-placement max coordinate
};

/// The category rules of §5 lifted to MD items.
enum class MdCategoryRule {
  kNone,        ///< single category (plain fit rule)
  kDeparture,   ///< windows of length rho over departure times (§5.2)
  kDuration,    ///< geometric duration classes, base/alpha (§5.3)
};

/// A configurable MD policy combining a category rule with a fit rule.
class MdClassifyPolicy : public MdOnlinePolicy {
 public:
  struct Config {
    MdFitRule fit = MdFitRule::kFirstFit;
    MdCategoryRule categories = MdCategoryRule::kNone;
    Time rho = 1.0;     ///< departure-window length (kDeparture)
    Time base = 1.0;    ///< duration base (kDuration)
    double alpha = 2.0; ///< duration ratio per class (kDuration)
  };

  explicit MdClassifyPolicy(Config config);

  std::string name() const override;
  BinId place(const MdPlacementView& view, const MdItem& item,
              int* category) override;

  int categoryOf(const MdItem& item) const;

 private:
  Config config_;
};

struct MdSimOptions {
  /// Placement engine selection; both engines produce bit-identical
  /// packings (tests/integration/placement_differential_test.cpp pins the
  /// multidim suites).
  PlacementEngine engine = PlacementEngine::kIndexed;
};

struct MdSimResult {
  MdPacking packing;
  Time totalUsage = 0;
  std::size_t binsOpened = 0;
  std::size_t maxOpenBins = 0;
};

/// Arrival-order simulation with close-on-empty bins, as in the scalar
/// simulator. Throws std::logic_error when the policy names a bin that
/// does not exist, is closed or cannot hold the item.
MdSimResult mdSimulateOnline(const MdInstance& instance, MdOnlinePolicy& policy,
                             const MdSimOptions& options = {});

}  // namespace cdbp
