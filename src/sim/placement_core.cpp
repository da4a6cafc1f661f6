#include "sim/placement_core.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/placement_view.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp {

void ArrivalValidator::admit(const Item& item) {
  auto reject = [&](const std::string& what) {
    throw std::invalid_argument(std::string(who_) + ": item " +
                                std::to_string(item.id) + " " + what);
  };
  if (!std::isfinite(item.arrival()) || !std::isfinite(item.departure())) {
    reject("has a non-finite time");
  }
  if (!(item.departure() > item.arrival())) {
    reject("departs at or before its arrival");
  }
  if (!std::isfinite(item.size) || !(item.size > 0) ||
      lt(kBinCapacity, item.size)) {
    reject("has size outside (0, 1]");
  }
  if (item.arrival() < time_ ||
      (item.arrival() == time_ && idBound_ && item.id <= lastId_)) {
    reject("arrives at " + std::to_string(item.arrival()) +
           ", out of increasing (arrival, id) order behind " +
           (idBound_ ? "item " + std::to_string(lastId_) + " at "
                     : std::string("the time watermark ")) +
           std::to_string(time_));
  }
  time_ = item.arrival();
  lastId_ = item.id;
  idBound_ = true;
}

void ArrivalValidator::advanceTo(Time time) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument(std::string(who_) +
                                ": drainUntil time is not finite");
  }
  if (time < time_) {
    throw std::invalid_argument(std::string(who_) + ": drainUntil(" +
                                std::to_string(time) +
                                ") regresses behind the time watermark " +
                                std::to_string(time_));
  }
  if (time > time_) {
    time_ = time;
    idBound_ = false;
  }
}

Item checkedAnnounce(const std::function<Item(const Item&)>& announce,
                     const Item& item) {
  if (!announce) return item;
  Item announced = announce(item);
  if (announced.id != item.id || announced.size != item.size ||
      announced.arrival() != item.arrival()) {
    throw std::logic_error("announce may only perturb the departure time");
  }
  return announced;
}

PlacementCore::PlacementCore(OnlinePolicy& policy, bool indexed)
    : policy_(policy), bins_(indexed) {}

bool PlacementCore::popDeparture(PendingDeparture& dep) {
  std::pop_heap(pending_.begin(), pending_.end(), laterDeparture);
  dep = pending_.back();
  pending_.pop_back();
  bool closed = bins_.removeItem(dep.bin, dep.size);
  if (closed) {
    usageByBin_[static_cast<std::size_t>(dep.bin)] =
        dep.time - bins_.info(dep.bin).openedAt;
  }
  CDBP_TELEM_COUNT("sim.events_processed", 1);
  return closed;
}

Placement PlacementCore::place(const Item& item, const Item& announced) {
  const Time now = item.arrival();
  PlacementDecision decision =
      policy_.place(PlacementView(bins_, now), announced);
  Placement placed;
  placed.item = item.id;
  placed.openedNewBin = decision.bin == kNewBin;
  placed.openBinsBefore = bins_.openCount();
  BinId target = decision.bin;
  if (placed.openedNewBin) {
    target = bins_.openBin(decision.category, now);
    usageByBin_.push_back(0);  // slot == id: one push per openBin
    CDBP_TELEM_COUNT("sim.placements_new_bin", 1);
  } else {
    CDBP_TELEM_COUNT("sim.placements_existing_bin", 1);
    if (!bins_.info(target).open) {
      throw std::logic_error(policy_.name() + " placed item " +
                             std::to_string(item.id) + " in closed bin " +
                             std::to_string(target));
    }
    // Validation re-check: wouldFit is the uncounted twin of fits(), so
    // sim.fit_checks measures policy-issued queries only.
    if (!bins_.wouldFit(target, item.size)) {
      throw std::logic_error(policy_.name() + " overfilled bin " +
                             std::to_string(target) + " with item " +
                             std::to_string(item.id));
    }
  }
  const BinManager::BinInfo& bin = bins_.info(target);
  placed.bin = target;
  placed.category = bin.category;
  placed.binLevelBefore = bin.level;
  bins_.addItem(target, item.size);
  pending_.push_back({item.departure(), item.id, target, item.size});
  std::push_heap(pending_.begin(), pending_.end(), laterDeparture);
  CDBP_TELEM_COUNT("sim.events_processed", 1);
  CDBP_TELEM_HIST("sim.item_size_permille", item.size * 1000.0);
  return placed;
}

Time PlacementCore::totalUsage() const {
  Time total = 0;
  for (Time usage : usageByBin_) total += usage;
  return total;
}

std::size_t PlacementCore::residentBytes() const {
  return pending_.capacity() * sizeof(PendingDeparture) +
         usageByBin_.capacity() * sizeof(Time) +
         bins_.binsOpened() * sizeof(BinManager::BinInfo) +
         bins_.openCount() * 2 * sizeof(BinId);
}

}  // namespace cdbp
