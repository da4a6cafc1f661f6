#include "multidim/md_policies.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/epsilon.hpp"
#include "sim/placement_core.hpp"

namespace cdbp {

MdClassifyPolicy::MdClassifyPolicy(Config config) : config_(config) {
  if (config_.categories == MdCategoryRule::kDeparture && !(config_.rho > 0)) {
    throw std::invalid_argument("MdClassifyPolicy: rho must be positive");
  }
  if (config_.categories == MdCategoryRule::kDuration &&
      (!(config_.base > 0) || !(config_.alpha > 1))) {
    throw std::invalid_argument("MdClassifyPolicy: need base > 0, alpha > 1");
  }
}

std::string MdClassifyPolicy::name() const {
  std::ostringstream os;
  switch (config_.categories) {
    case MdCategoryRule::kNone:
      os << "MD-";
      break;
    case MdCategoryRule::kDeparture:
      os << "MD-CDT(rho=" << config_.rho << ")-";
      break;
    case MdCategoryRule::kDuration:
      os << "MD-CD(alpha=" << config_.alpha << ")-";
      break;
  }
  os << (config_.fit == MdFitRule::kFirstFit ? "FirstFit" : "DominantFit");
  return os.str();
}

int MdClassifyPolicy::categoryOf(const MdItem& item) const {
  switch (config_.categories) {
    case MdCategoryRule::kNone:
      return 0;
    case MdCategoryRule::kDeparture: {
      double q = item.departure() / config_.rho;
      double nearest = std::round(q);
      if (std::fabs(q - nearest) <= kTimeEps) q = nearest;
      return static_cast<int>(std::ceil(q)) - 1;
    }
    case MdCategoryRule::kDuration: {
      double q = std::log(item.duration() / config_.base) / std::log(config_.alpha);
      double nearest = std::round(q);
      if (std::fabs(q - nearest) <= 1e-9) q = nearest;
      return static_cast<int>(std::floor(q));
    }
  }
  return 0;
}

BinId MdClassifyPolicy::place(const MdPlacementView& view, const MdItem& item,
                              int* category) {
  *category = categoryOf(item);
  if (config_.fit == MdFitRule::kFirstFit) {
    return view.firstFitIn(*category, item.demand);
  }
  // Dominant-resource fit: pick the fitting bin whose post-placement
  // dominant coordinate is smallest (keeps dimensions balanced); ties to
  // the earliest-opened bin.
  return view.minScoreFitIn(*category, item.demand,
                            [&item](const Resources& level) {
                              return (level + item.demand).maxCoordinate();
                            });
}

MdSimResult mdSimulateOnline(const MdInstance& instance, MdOnlinePolicy& policy,
                             const MdSimOptions& options) {
  if (options.engine == PlacementEngine::kSharded) {
    throw std::invalid_argument(
        "mdSimulateOnline: the sharded engine is scalar-only; "
        "use kIndexed or kLinearScan");
  }
  policy.reset();
  BasicPlacementCore<VectorResource> core(
      policy.name(), options.engine == PlacementEngine::kIndexed,
      VectorResource::Shape{instance.dims()});
  std::vector<BinId> binOf(instance.size(), kUnassigned);
  std::size_t maxOpen = 0;
  for (const MdItem& r : instance.sortedByArrival()) {
    core.drainUntil(r.arrival());
    int category = 0;
    BinId target =
        policy.place(MdPlacementView(core.bins(), r.arrival()), r, &category);
    auto placed = core.commit(r.id, r.demand, r.arrival(), r.departure(),
                              target, category);
    binOf[r.id] = placed.bin;
    maxOpen = std::max(maxOpen, core.bins().openCount());
  }

  MdSimResult result;
  result.packing = MdPacking(instance, std::move(binOf));
  result.totalUsage = result.packing.totalUsage();
  result.binsOpened = core.bins().binsOpened();
  result.maxOpenBins = maxOpen;
  return result;
}

}  // namespace cdbp
