// The one scalar placement step (paper §3.1, §5): an arriving item goes
// into an open bin or a new one, and a bin closes for good when its last
// item departs. StreamEngine drives one PlacementCore (and simulateOnline
// drives a StreamEngine); the sharded engine drives one per shard. What an
// engine adds on top — the lower bound, observers, single-timeline
// telemetry, cross-shard logs — stays in the engine, so the placement code
// exists once (DESIGN.md §9.2). ArrivalValidator and checkedAnnounce are
// the input contracts the engines share.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "core/epsilon.hpp"
#include "core/item.hpp"
#include "core/types.hpp"
#include "online/policy.hpp"
#include "sim/bin_manager.hpp"

namespace cdbp {

/// One committed placement.
struct Placement {
  ItemId item = 0;
  BinId bin = 0;
  bool openedNewBin = false;
  int category = 0;
  /// Open bins the policy decided against (excludes a bin opened for
  /// this item).
  std::size_t openBinsBefore = 0;
  /// Level of the chosen bin before this item was added.
  double binLevelBefore = 0;
};

/// One pending departure per arrived-but-not-departed item, popped in
/// (time, id) order: simultaneous departures drain in item-id order, so
/// bin levels evolve through one fixed sequence of floating-point updates.
struct PendingDeparture {
  Time time;
  ItemId item;
  BinId bin;
  Size size;
};

/// std::push_heap/pop_heap maintain a max-heap w.r.t. the comparator;
/// "later departure wins" turns that into a min-heap on (time, id).
inline bool laterDeparture(const PendingDeparture& a,
                           const PendingDeparture& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.item > b.item;
}

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

class PlacementCore {
 public:
  /// `policy` must outlive the core; it is not reset() here. `indexed`
  /// selects the BinManager engine.
  PlacementCore(OnlinePolicy& policy, bool indexed);

  /// Pops every pending departure due at or before `time` in (time, id)
  /// order, calling `onDeparture(dep, closedBin)` after each removal.
  /// Returns the number popped.
  template <typename OnDeparture>
  std::size_t drainUntil(Time time, OnDeparture&& onDeparture) {
    std::size_t drained = 0;
    while (!pending_.empty() && pending_.front().time <= time) {
      PendingDeparture dep;
      bool closed = popDeparture(dep);
      onDeparture(dep, closed);
      ++drained;
    }
    return drained;
  }

  /// Shows `announced` to the policy at `item`'s arrival, validates the
  /// answer (std::logic_error on a closed or overfilled bin) and commits
  /// `item` — the true departure — to the chosen bin. The caller drains
  /// first.
  Placement place(const Item& item, const Item& announced);

  const BinManager& bins() const { return bins_; }
  std::size_t pendingDepartures() const { return pending_.size(); }

  /// Usage (close - open) per bin id; 0 for a bin still open.
  const std::vector<Time>& usageByBin() const { return usageByBin_; }

  /// Sum of usageByBin in bin-id order, the addition order of
  /// Packing::totalUsage().
  Time totalUsage() const;

  /// Estimated bytes held: departure heap, usage ledger, bin metadata.
  std::size_t residentBytes() const;

 private:
  bool popDeparture(PendingDeparture& dep);  // true when the bin closed

  OnlinePolicy& policy_;
  BinManager bins_;
  std::vector<PendingDeparture> pending_;  // min-heap on (time, id)
  std::vector<Time> usageByBin_;
};

}  // namespace cdbp
