#include "sim/placement_core.hpp"

#include <stdexcept>
#include <string>

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

template class BasicPlacementCore<ScalarResource>;

PlacementCore::PlacementCore(OnlinePolicy& policy, bool indexed)
    : BasicPlacementCore(policy.name(), indexed), policy_(policy) {}

}  // namespace cdbp
