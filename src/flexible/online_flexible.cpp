#include "flexible/online_flexible.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/epsilon.hpp"
#include "sim/placement_core.hpp"

namespace cdbp {

FlexDecision FlexStartAsapFF::consider(const PlacementView& view,
                                       const FlexibleJob& job, Time) {
  BinId id = view.firstFit(job.size);
  return id == kNewBin ? FlexDecision::startFresh() : FlexDecision::start(id);
}

void FlexDeferAlign::onPlaced(BinId bin, Time departure) {
  if (static_cast<std::size_t>(bin) >= binEnds_.size()) {
    binEnds_.resize(static_cast<std::size_t>(bin) + 1, 0);
  }
  binEnds_[static_cast<std::size_t>(bin)] =
      std::max(binEnds_[static_cast<std::size_t>(bin)], departure);
}

FlexDecision FlexDeferAlign::consider(const PlacementView& view,
                                      const FlexibleJob& job, Time now) {
  bool forced = now >= job.latestStart() - kTimeEps;
  // Look for a zero-marginal slot: fits now and the bin is already
  // committed past now + length. The slot criterion depends on policy
  // state (binEnds_) the substrate cannot rank by, so this stays a
  // bespoke scan over the view's open-list surface.
  // cdbp-lint: allow(raw-bin-loop): selection keys on policy-private binEnds_, not a substrate query
  for (BinId id : view.openBins()) {
    if (!view.fits(id, job.size)) continue;
    Time binEnd = static_cast<std::size_t>(id) < binEnds_.size()
                      ? binEnds_[static_cast<std::size_t>(id)]
                      : 0;
    if (binEnd >= now + job.length - kTimeEps) return FlexDecision::start(id);
  }
  if (!forced) return FlexDecision::defer();
  // Forced: plain First Fit, fresh bin as a last resort.
  BinId id = view.firstFit(job.size);
  return id == kNewBin ? FlexDecision::startFresh() : FlexDecision::start(id);
}

std::optional<std::string> FlexOnlineResult::validate(
    const FlexibleInstance& instance) const {
  if (starts.size() != instance.size()) return "starts size mismatch";
  for (const FlexibleJob& j : instance.jobs()) {
    Time s = starts[j.id];
    if (s < j.release - kTimeEps || s > j.latestStart() + kTimeEps) {
      return "job " + std::to_string(j.id) + " started at " +
             std::to_string(s) + " outside its window";
    }
  }
  return packing.validate();
}

FlexOnlineResult simulateFlexibleOnline(const FlexibleInstance& instance,
                                        FlexOnlinePolicy& policy,
                                        const FlexSimOptions& options) {
  if (options.engine == PlacementEngine::kSharded) {
    throw std::invalid_argument(
        "simulateFlexibleOnline: the sharded engine is scalar-only; "
        "use kIndexed or kLinearScan");
  }
  policy.reset();
  BasicPlacementCore<ScalarResource> core(
      policy.name(), options.engine == PlacementEngine::kIndexed);
  std::vector<Time> starts(instance.size(),
                           std::numeric_limits<Time>::quiet_NaN());
  std::vector<BinId> binOf(instance.size(), kUnassigned);
  std::size_t forcedStarts = 0;

  // Jobs ordered by release; `released` holds pending (released, not yet
  // started) job ids in release order.
  std::vector<ItemId> byRelease;
  for (const FlexibleJob& j : instance.jobs()) byRelease.push_back(j.id);
  std::stable_sort(byRelease.begin(), byRelease.end(),
                   [&](ItemId a, ItemId b) {
                     if (instance[a].release != instance[b].release) {
                       return instance[a].release < instance[b].release;
                     }
                     return a < b;
                   });
  std::size_t nextRelease = 0;
  std::vector<ItemId> pending;

  while (nextRelease < byRelease.size() || !pending.empty() ||
         core.pendingDepartures() > 0) {
    // Next event time: earliest of departure / release / forced start.
    Time t = core.nextDeparture();
    if (nextRelease < byRelease.size()) {
      t = std::min(t, instance[byRelease[nextRelease]].release);
    }
    for (ItemId id : pending) t = std::min(t, instance[id].latestStart());

    // 1. Departures free capacity first (half-open intervals), with the
    // same tolerance as the release and forced-start tests below.
    core.drainUntil(t + kTimeEps);
    // 2. Releases at t join the pending set.
    while (nextRelease < byRelease.size() &&
           instance[byRelease[nextRelease]].release <= t + kTimeEps) {
      pending.push_back(byRelease[nextRelease]);
      ++nextRelease;
    }
    // 3. Offer pending jobs until a full pass places nothing. Forced jobs
    // (latest start reached) are placed unconditionally.
    bool placedAny = true;
    while (placedAny) {
      placedAny = false;
      for (std::size_t i = 0; i < pending.size();) {
        const FlexibleJob& job = instance[pending[i]];
        bool forced = t >= job.latestStart() - kTimeEps;
        FlexDecision decision =
            policy.consider(PlacementView(core.bins(), t), job, t);
        if (decision.startNow || forced) {
          // A forced job the policy defers gets a fresh bin.
          BinId target = decision.startNow ? decision.bin : kNewBin;
          const Time end = t + job.length;
          BinId bin = core.commit(job.id, job.size, t, end, target, 0).bin;
          starts[job.id] = t;
          binOf[job.id] = bin;
          if (forced) ++forcedStarts;
          policy.onPlaced(bin, end);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          placedAny = true;
        } else {
          ++i;
        }
      }
    }
  }

  FlexOnlineResult result;
  result.starts = starts;
  result.fixedInstance = std::make_shared<Instance>(instance.materialize(starts));
  result.packing = Packing(*result.fixedInstance, std::move(binOf));
  result.totalUsage = result.packing.totalUsage();
  result.binsOpened = core.bins().binsOpened();
  result.forcedStarts = forcedStarts;
  return result;
}

}  // namespace cdbp
