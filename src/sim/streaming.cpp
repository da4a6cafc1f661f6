#include "sim/streaming.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/placement_core.hpp"
#include "sim/sharded.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp {

namespace {

constexpr int kTracePid = 1;
constexpr double kTraceScale = telemetry::kTraceMicrosPerTimeUnit;

#if CDBP_TELEMETRY
// Scan cost of one placement = fit() probes the policy issued for it,
// measured as the delta of the global fit-check counter around the core's
// place(). The counter is process-wide, so concurrent simulations (the
// parallel sweep harness) would attribute each other's probes; the
// per-placement histogram is therefore only recorded when the delta is
// plausible for a single placement — the aggregate counter stays exact
// either way. The sharded shards skip the histogram for the same reason.
telemetry::Counter& fitCheckCounter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("sim.fit_checks");
  return c;
}
#endif

}  // namespace

InstanceArrivalSource::InstanceArrivalSource(const Instance& instance)
    : items_(instance.sortedByArrival()) {}

bool InstanceArrivalSource::next(StreamItem& out) {
  if (pos_ >= items_.size()) return false;
  const Item& r = items_[pos_++];
  out.size = r.size;
  out.arrival = r.arrival();
  out.departure = r.departure();
  return true;
}

// One PlacementCore plus what a single timeline adds on top of it: the
// incremental lower bound, the observers and the live statistics.
struct StreamEngine::Impl {
  StreamOptions options;
  PlacementCore core;
  ArrivalValidator arrivals{"simulateStream"};
  IncrementalLb3 lb3;
  StreamResult result;
  std::size_t residentPeak = 0;
  ItemId nextId = 0;
  bool done = false;

  Impl(OnlinePolicy& policy, const StreamOptions& o)
      : options(o), core(policy, o.engine == PlacementEngine::kIndexed) {
    if (o.engine == PlacementEngine::kSharded) {
      throw std::invalid_argument(
          "StreamEngine: the sharded engine is not a push-engine backend; "
          "route through simulateStream or ShardedSimulator");
    }
    policy.reset();
    if (options.chromeTrace) {
      options.chromeTrace->setProcessName(kTracePid,
                                          "cdbp simulation: " + policy.name());
    }
  }

  void noteResident() {
    std::size_t bytes = core.residentBytes();
    if (bytes > residentPeak) {
      residentPeak = bytes;
      CDBP_TELEM_GAUGE_SET("stream.resident_bytes", bytes);
    }
  }

  void requireLive(const char* what) const {
    if (done) {
      throw std::logic_error(std::string("StreamEngine: ") + what +
                             " after finish()");
    }
  }

  // Departures due at or before `time`, in (time, id) order.
  std::size_t drain(Time time) {
    return core.drainUntil(time, [this](const PendingDeparture& dep, bool) {
      if (options.computeLowerBound) lb3.onEvent(dep.time, -dep.size);
      CDBP_TELEM_GAUGE_SET("stream.open_items", core.pendingDepartures());
      if (options.chromeTrace) {
        options.chromeTrace->addCounter(
            "open_bins", dep.time * kTraceScale, kTracePid,
            static_cast<double>(core.bins().openCount()));
      }
    });
  }

  Placement place(const Item& item) {
    requireLive("place()");
    arrivals.admit(item);
    ++result.items;

    // Exact-time draining: every departure at or before this arrival is
    // processed first (half-open intervals).
    drain(item.arrival());

    Item announced = checkedAnnounce(options.announce, item);
    if (options.computeLowerBound) lb3.onEvent(item.arrival(), item.size);

#if CDBP_TELEMETRY
    std::uint64_t fitChecksBefore = fitCheckCounter().value();
#endif
    Placement placed = core.place(item, announced);
#if CDBP_TELEMETRY
    std::uint64_t scanned = fitCheckCounter().value() - fitChecksBefore;
    if (scanned <= placed.openBinsBefore) {
      CDBP_TELEM_HIST("sim.bins_scanned_per_placement", scanned);
    }
#endif
    const BinManager& bins = core.bins();
    result.peakOpenItems =
        std::max(result.peakOpenItems, core.pendingDepartures());
    CDBP_TELEM_GAUGE_SET("stream.open_items", core.pendingDepartures());
    result.maxOpenBins = std::max(result.maxOpenBins, bins.openCount());

    if (options.onPlacement) {
      options.onPlacement(item.id, placed.bin, placed.openedNewBin,
                          placed.category);
    }
    if (options.chromeTrace) {
      std::ostringstream name;
      name << "item " << item.id;
      options.chromeTrace->addComplete(
          name.str(), "item", item.arrival() * kTraceScale,
          item.duration() * kTraceScale, kTracePid,
          static_cast<int>(placed.bin),
          {{"size", item.size},
           {"category", static_cast<double>(placed.category)},
           {"bin_level_after", bins.info(placed.bin).level}});
      options.chromeTrace->addCounter("open_bins",
                                      item.arrival() * kTraceScale, kTracePid,
                                      static_cast<double>(bins.openCount()));
    }
    noteResident();
    return placed;
  }

  std::size_t drainUntil(Time time) {
    requireLive("drainUntil()");
    // Advancing the watermark keeps equivalence with the pure-streaming
    // order: a later arrival below `time` would have been placed BEFORE
    // the departures in (arrival, time], so once those departures are
    // drained such an arrival must be rejected — place() does.
    arrivals.advanceTo(time);
    return drain(time);
  }

  StreamResult finish() {
    requireLive("finish()");
    // End of stream: drain every pending departure so all bins close and
    // the usage ledger completes.
    drain(std::numeric_limits<Time>::infinity());

    const BinManager& bins = core.bins();
    if (options.chromeTrace) {
      for (std::size_t b = 0; b < bins.binsOpened(); ++b) {
        const BinManager::BinInfo& info = bins.info(static_cast<BinId>(b));
        std::ostringstream name;
        name << "bin " << info.id << " (cat " << info.category << ")";
        options.chromeTrace->setThreadName(kTracePid,
                                           static_cast<int>(info.id),
                                           name.str());
      }
    }

    result.totalUsage = core.totalUsage();
    result.binsOpened = bins.binsOpened();
    result.categoriesUsed = bins.categoriesUsed();
    if (options.computeLowerBound) result.lb3 = lb3.total();
    result.peakResidentBytes = residentPeak;
    done = true;
    return result;
  }
};

StreamEngine::StreamEngine(OnlinePolicy& policy, const StreamOptions& options)
    : impl_(std::make_unique<Impl>(policy, options)) {}

StreamEngine::~StreamEngine() = default;

Placement StreamEngine::place(const Item& item) { return impl_->place(item); }

Placement StreamEngine::place(const StreamItem& item) {
  if (impl_->nextId == std::numeric_limits<ItemId>::max()) {
    throw std::invalid_argument("simulateStream: item id space exhausted");
  }
  Placement placed =
      impl_->place(Item(impl_->nextId, item.size, item.arrival, item.departure));
  ++impl_->nextId;
  return placed;
}

std::size_t StreamEngine::drainUntil(Time time) {
  return impl_->drainUntil(time);
}

StreamResult StreamEngine::finish() { return impl_->finish(); }

bool StreamEngine::finished() const { return impl_->done; }

Time StreamEngine::timeWatermark() const {
  return impl_->arrivals.watermark();
}

std::size_t StreamEngine::itemsPlaced() const { return impl_->result.items; }

std::size_t StreamEngine::binsOpened() const {
  return impl_->core.bins().binsOpened();
}

std::size_t StreamEngine::maxOpenBins() const {
  return impl_->result.maxOpenBins;
}

std::size_t StreamEngine::categoriesUsed() const {
  return impl_->core.bins().categoriesUsed();
}

std::size_t StreamEngine::openBins() const {
  return impl_->core.bins().openCount();
}

std::size_t StreamEngine::pendingDepartures() const {
  return impl_->core.pendingDepartures();
}

std::size_t StreamEngine::peakOpenItems() const {
  return impl_->result.peakOpenItems;
}

std::size_t StreamEngine::peakResidentBytes() const {
  return impl_->residentPeak;
}

StreamResult simulateStream(ArrivalSource& source, OnlinePolicy& policy,
                            const StreamOptions& options) {
  if (options.engine == PlacementEngine::kSharded) {
    if (options.chromeTrace != nullptr) {
      throw std::invalid_argument(
          "simulateStream: the sharded engine does not produce chrome "
          "traces; use kIndexed for trace runs");
    }
    if (options.onPlacement) {
      throw std::invalid_argument(
          "simulateStream: the sharded engine does not support onPlacement "
          "(shard-local category ids); capture placements through "
          "simulateSharded's ShardedOptions::capturePlacements");
    }
    ShardedOptions shardedOptions;
    shardedOptions.threads = options.shardedThreads;
    shardedOptions.computeLowerBound = options.computeLowerBound;
    shardedOptions.announce = options.announce;
    ShardedResult sharded = simulateSharded(source, policy, shardedOptions);
    StreamResult result;
    result.items = sharded.items;
    result.totalUsage = sharded.totalUsage;
    result.binsOpened = sharded.binsOpened;
    result.maxOpenBins = sharded.maxOpenBins;
    result.categoriesUsed = sharded.categoriesUsed;
    result.lb3 = sharded.lb3;
    result.peakOpenItems = sharded.peakOpenItems;
    result.peakResidentBytes = 0;
    return result;
  }

  StreamEngine engine(policy, options);
  StreamItem incoming;
  while (source.next(incoming)) engine.place(incoming);
  return engine.finish();
}

}  // namespace cdbp
