// The one placement step (paper §3.1, §5): an arriving item goes into an
// open bin or a new one, and a bin closes for good when its last item
// departs. BasicPlacementCore<R> drains departures and validates and
// commits a policy's decision for any Resource model whose bins close;
// PlacementCore asks the scalar OnlinePolicy first. Every online simulator
// drives one (DESIGN.md §9.2): StreamEngine (and through it
// simulateOnline), each sharded shard, and the multidim and flexible-start
// simulators. What an engine adds on top — the lower bound, observers,
// single-timeline telemetry, cross-shard logs — stays in the engine.
// ArrivalValidator and checkedAnnounce are the input contracts the scalar
// engines share.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/epsilon.hpp"
#include "core/item.hpp"
#include "core/types.hpp"
#include "online/policy.hpp"
#include "sim/bin_manager.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp {

/// One committed placement.
template <typename R>
struct BasicPlacement {
  ItemId item = 0;
  BinId bin = 0;
  bool openedNewBin = false;
  int category = 0;
  /// Open bins the policy decided against (excludes a bin opened for
  /// this item).
  std::size_t openBinsBefore = 0;
  /// Level of the chosen bin before this item was added.
  typename R::Level binLevelBefore{};
};

using Placement = BasicPlacement<ScalarResource>;

/// One pending departure per arrived-but-not-departed item, popped in
/// (time, id) order: simultaneous departures drain in item-id order, so
/// bin levels evolve through one fixed sequence of floating-point updates.
template <typename R>
struct BasicPendingDeparture {
  Time time;
  ItemId item;
  BinId bin;
  typename R::Demand size;
};

using PendingDeparture = BasicPendingDeparture<ScalarResource>;

/// std::push_heap/pop_heap maintain a max-heap w.r.t. the comparator;
/// "later departure wins" turns that into a min-heap on (time, id).
inline constexpr auto laterDeparture = [](const auto& a, const auto& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.item > b.item;
};

/// Incremental mirror of StepFunction::ceilIntegral(kSizeEps) over the
/// running total-size profile S(t): each event first settles the segment
/// since the previous event — skipping near-empty segments and snapping
/// near-integer levels, exactly as the batch bound does — then applies the
/// item's size delta. O(1) state; the price is that the running level is a
/// long alternating FP sum, so the result matches the batch bound to
/// accumulation order, not bitwise (DESIGN.md §11.4).
class IncrementalLb3 {
 public:
  void onEvent(Time t, double delta) {
    if (level_ > kSizeEps && t > last_) {
      double nearest = std::round(level_);
      double value =
          (std::fabs(level_ - nearest) <= kSizeEps) ? nearest : level_;
      total_ += std::ceil(value) * (t - last_);
    }
    last_ = t;
    level_ += delta;
  }

  double total() const { return total_; }

 private:
  double level_ = 0;
  double total_ = 0;
  Time last_ = 0;
};

/// The arrival contract of every engine: finite times, departure >
/// arrival, size in (0, 1], and strictly increasing (arrival, id).
/// advanceTo() moves the watermark without an item (drainUntil); an item
/// arriving exactly at a watermark set that way is accepted whatever its
/// id.
class ArrivalValidator {
 public:
  /// `who` prefixes every error message ("simulateStream", ...).
  explicit ArrivalValidator(const char* who) : who_(who) {}

  /// Throws std::invalid_argument unless `item` is model-valid and after
  /// the watermark, which then becomes (arrival, id).
  void admit(const Item& item);

  /// Throws std::invalid_argument when `time` is non-finite or behind the
  /// watermark, which then becomes `time`.
  void advanceTo(Time time);

  /// Latest admitted arrival or advanced time; -infinity before either.
  Time watermark() const { return time_; }

 private:
  const char* who_;
  Time time_ = -std::numeric_limits<Time>::infinity();
  ItemId lastId_ = 0;
  bool idBound_ = false;  // whether lastId_ belongs to an item at time_
};

/// Applies `announce` (when set) to `item` and throws std::logic_error if
/// the result changes anything but the departure.
Item checkedAnnounce(const std::function<Item(const Item&)>& announce,
                     const Item& item);

/// The placement step over resource model R: departures, validation and
/// commit. The policy query stays with the simulator that owns the core.
template <typename R>
class BasicPlacementCore {
 public:
  using Manager = BasicBinManager<R>;
  using Demand = typename R::Demand;
  using Departure = BasicPendingDeparture<R>;

  /// `policyName` names the deciding policy in commit()'s errors;
  /// `indexed` selects the BinManager engine; `shape` is the resource
  /// model's per-manager configuration.
  BasicPlacementCore(std::string policyName, bool indexed,
                     typename R::Shape shape = {})
      : policyName_(std::move(policyName)), bins_(indexed, shape) {}

  /// Pops every pending departure due at or before `time` in (time, id)
  /// order, calling `onDeparture(dep, closedBin)` after each removal.
  /// Returns the number popped.
  template <typename OnDeparture>
  std::size_t drainUntil(Time time, OnDeparture&& onDeparture) {
    std::size_t drained = 0;
    while (!pending_.empty() && pending_.front().time <= time) {
      Departure dep;
      bool closed = popDeparture(dep);
      onDeparture(dep, closed);
      ++drained;
    }
    return drained;
  }

  std::size_t drainUntil(Time time) {
    return drainUntil(time, [](const Departure&, bool) {});
  }

  /// Validates a policy's decision for an item of `demand` arriving at
  /// `now` and departing at `departure` — std::logic_error when `target`
  /// names no bin, a closed bin, or a bin the item would overfill — and
  /// commits it: kNewBin opens a bin tagged `category`. The caller drains
  /// first.
  BasicPlacement<R> commit(ItemId item, const Demand& demand, Time now,
                           Time departure, BinId target, int category);

  const Manager& bins() const { return bins_; }
  std::size_t pendingDepartures() const { return pending_.size(); }

  /// Time of the earliest pending departure; kTimeInfinity when none.
  Time nextDeparture() const {
    return pending_.empty() ? kTimeInfinity : pending_.front().time;
  }

  /// Usage (close - open) per bin id; 0 for a bin still open.
  const std::vector<Time>& usageByBin() const { return usageByBin_; }

  /// Sum of usageByBin in bin-id order, the addition order of
  /// Packing::totalUsage().
  Time totalUsage() const {
    Time total = 0;
    for (Time usage : usageByBin_) total += usage;
    return total;
  }

  /// Estimated bytes held: departure heap, usage ledger, bin metadata.
  std::size_t residentBytes() const {
    return pending_.capacity() * sizeof(Departure) +
           usageByBin_.capacity() * sizeof(Time) +
           bins_.binsOpened() * sizeof(typename Manager::BinInfo) +
           bins_.openCount() * 2 * sizeof(BinId);
  }

 private:
  bool popDeparture(Departure& dep);  // true when the bin closed
  [[noreturn]] void reject(ItemId item, BinId target, const char* what) const;

  std::string policyName_;
  Manager bins_;
  std::vector<Departure> pending_;  // min-heap on (time, id)
  std::vector<Time> usageByBin_;
};

template <typename R>
bool BasicPlacementCore<R>::popDeparture(Departure& dep) {
  std::pop_heap(pending_.begin(), pending_.end(), laterDeparture);
  dep = std::move(pending_.back());
  pending_.pop_back();
  bool closed = bins_.removeItem(dep.bin, dep.size);
  if (closed) {
    usageByBin_[static_cast<std::size_t>(dep.bin)] =
        dep.time - bins_.info(dep.bin).openedAt;
  }
  CDBP_TELEM_COUNT("sim.events_processed", 1);
  return closed;
}

template <typename R>
void BasicPlacementCore<R>::reject(ItemId item, BinId target,
                                   const char* what) const {
  throw std::logic_error(policyName_ + " placed item " + std::to_string(item) +
                         " in bin " + std::to_string(target) + ", " + what);
}

template <typename R>
BasicPlacement<R> BasicPlacementCore<R>::commit(ItemId item,
                                                const Demand& demand, Time now,
                                                Time departure, BinId target,
                                                int category) {
  BasicPlacement<R> placed;
  placed.item = item;
  placed.openedNewBin = target == kNewBin;
  placed.openBinsBefore = bins_.openCount();
  if (placed.openedNewBin) {
    target = bins_.openBin(category, now);
    usageByBin_.push_back(0);  // slot == id: one push per openBin
    CDBP_TELEM_COUNT("sim.placements_new_bin", 1);
  } else {
    CDBP_TELEM_COUNT("sim.placements_existing_bin", 1);
    // Unsigned compare: a negative id other than kNewBin is out of range.
    if (static_cast<std::size_t>(target) >= bins_.binsOpened()) {
      reject(item, target, "which does not exist");
    }
    if (!bins_.info(target).open) reject(item, target, "which is closed");
    // Validation re-check: wouldFit is the uncounted twin of fits(), so
    // sim.fit_checks measures policy-issued queries only.
    if (!bins_.wouldFit(target, demand)) {
      reject(item, target, "which it overfills");
    }
  }
  const typename Manager::BinInfo& bin = bins_.info(target);
  placed.bin = target;
  placed.category = bin.category;
  placed.binLevelBefore = bin.level;
  bins_.addItem(target, demand);
  pending_.push_back({departure, item, target, demand});
  std::push_heap(pending_.begin(), pending_.end(), laterDeparture);
  CDBP_TELEM_COUNT("sim.events_processed", 1);
  return placed;
}

extern template class BasicPlacementCore<ScalarResource>;

/// The scalar step: asks the OnlinePolicy, then commits its decision.
class PlacementCore : public BasicPlacementCore<ScalarResource> {
 public:
  /// `policy` must outlive the core; it is not reset() here. `indexed`
  /// selects the BinManager engine.
  PlacementCore(OnlinePolicy& policy, bool indexed);

  /// Shows `announced` to the policy at `item`'s arrival, validates the
  /// answer and commits `item` — the true departure — to the chosen bin.
  /// The caller drains first. Inline, so an engine's per-item path makes
  /// one out-of-line call (commit) besides the policy's.
  Placement place(const Item& item, const Item& announced) {
    PlacementDecision decision =
        policy_.place(PlacementView(bins(), item.arrival()), announced);
    Placement placed = commit(item.id, item.size, item.arrival(),
                              item.departure(), decision.bin,
                              decision.category);
    CDBP_TELEM_HIST("sim.item_size_permille", item.size * 1000.0);
    return placed;
  }

 private:
  OnlinePolicy& policy_;
};

}  // namespace cdbp
