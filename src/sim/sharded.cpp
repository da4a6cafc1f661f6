#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "sim/placement_core.hpp"
#include "sim/streaming.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace cdbp {

namespace {

// Every shard holds one worker thread for the whole run, so more shards
// than this only adds idle threads; a backstop against absurd --threads
// values.
constexpr std::size_t kMaxShards = 64;

// One arrival as the feed thread hands it to a shard.
struct Arrival {
  ItemId id;
  Size size;
  Time arrival;
  Time departure;           // true departure (drives the system)
  Time announcedDeparture;  // what the policy is shown
};

// One shard's share of one epoch, in arrival order.
using Batch = std::vector<Arrival>;

// What a shard's open/close log remembers per bin event; merged across
// shards at finish() in (time, close-before-open, id) order to
// reconstruct global bin ids, the global-order usage sum and maxOpenBins.
struct BinLogRec {
  Time time;    // the opening arrival or closing departure instant
  ItemId item;  // the item whose placement opened / departure closed it
};

// The order every shard writes its logs in (see mergeShards()).
bool logOrder(const BinLogRec& a, const BinLogRec& b) {
  return a.time != b.time ? a.time < b.time : a.item < b.item;
}

}  // namespace

struct ShardedSimulator::Impl {
  // One shard: one key group's placement core (bins, policy, pending
  // departures keyed by global item id), driven by its own worker loop, so
  // the hot-path state needs no locking of its own.
  struct Shard {
    Shard(std::size_t indexIn, PolicyPtr ownedIn, OnlinePolicy& policy,
          std::size_t depth)
        : index(indexIn),
          owned(std::move(ownedIn)),
          core(policy, /*indexed=*/true),
          slots(depth) {}

    const std::size_t index;
    PolicyPtr owned;  // clone (null in single-shard fallback)
    PlacementCore core;
    std::vector<BinLogRec> opens;  // local bin id -> open record
    std::vector<BinLogRec> closes;
    std::vector<std::pair<ItemId, BinId>> placements;  // capture mode

    // Feed-side only: this shard's arrivals of the epoch being filled.
    Batch filling;

    // Bounded single-producer/single-consumer ring of epoch batches: the
    // feed swaps `filling` into slot (front + count) % depth, the worker
    // swaps slot `front` out, places it and only then advances, so
    // `count` includes the batch being placed. Every swap trades a full
    // batch for an empty one that keeps its capacity: steady state
    // allocates nothing.
    Mutex mutex;
    // Signals count moved or closed. notify_one suffices: the feed waits
    // only on a full ring and the worker only on an empty one.
    std::condition_variable_any changed;
    std::vector<Batch> slots CDBP_GUARDED_BY(mutex);
    std::size_t front CDBP_GUARDED_BY(mutex) = 0;
    std::size_t count CDBP_GUARDED_BY(mutex) = 0;
    bool closed CDBP_GUARDED_BY(mutex) = false;  // no more batches follow
  };

  OnlinePolicy& prototype;
  ShardedOptions options;
  ShardedResult result;

  bool modeDecided = false;
  bool partitioned = false;
  std::vector<std::unique_ptr<Shard>> shards;
  std::unordered_map<long long, std::uint32_t> keyToShard;
  std::uint32_t nextShardRoundRobin = 0;

  std::unique_ptr<ThreadPool> pool;

  std::size_t epochFill = 0;  // arrivals fed since the last dispatch
  ArrivalValidator arrivals{"simulateSharded"};
  ItemId maxId = 0;
  bool finished = false;

  // Feed-side Proposition 3 bound: the same heap discipline and the same
  // accumulator code as StreamEngine, so the double is bitwise identical.
  IncrementalLb3 lb3;
  std::vector<PendingDeparture> lb3Pending;

  // First worker error wins; later batches are discarded unplaced but
  // still consumed, so the feed thread can never block forever.
  Mutex errMutex;
  std::exception_ptr firstError CDBP_GUARDED_BY(errMutex);
  std::atomic<bool> failed{false};

  Impl(OnlinePolicy& p, const ShardedOptions& o) : prototype(p), options(o) {
    if (options.epochArrivals == 0) options.epochArrivals = 1;
    if (options.maxEpochsInFlight == 0) options.maxEpochsInFlight = 1;
  }

  ~Impl() {
    // Closing the rings and joining the pool first is what makes
    // destruction safe: workers reference the shards. Mark failed so
    // queued batches are discarded fast.
    failed.store(true, std::memory_order_relaxed);
    closeRings();
    pool.reset();
  }

  std::size_t configuredShardCount() const {
    std::size_t n = options.threads != 0
                        ? options.threads
                        : static_cast<std::size_t>(
                              std::thread::hardware_concurrency());
    if (n == 0) n = 1;
    return std::min(n, kMaxShards);
  }

  void recordError(std::exception_ptr error) {
    MutexLock lock(errMutex);
    if (!firstError) firstError = std::move(error);
    failed.store(true, std::memory_order_relaxed);
  }

  void rethrowIfFailed() {
    if (!failed.load(std::memory_order_relaxed)) return;
    MutexLock lock(errMutex);
    if (firstError) std::rethrow_exception(firstError);
  }

  // --- Mode decision (first item) -----------------------------------

  void decideMode(bool keyed) {
    modeDecided = true;
    // A key without clone() support cannot be replicated per shard; fall
    // back to the single-shard path silently — it is always correct, just
    // not parallel.
    PolicyPtr first = keyed ? prototype.clone() : nullptr;
    partitioned = first != nullptr;
    const std::size_t count = partitioned ? configuredShardCount() : 1;
    shards.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      PolicyPtr owned = s == 0 ? std::move(first) : prototype.clone();
      OnlinePolicy& policy = owned ? *owned : prototype;
      policy.reset();
      shards.push_back(std::make_unique<Shard>(s, std::move(owned), policy,
                                               options.maxEpochsInFlight));
    }
    pool = std::make_unique<ThreadPool>(count);
    for (auto& shard : shards) {
      pool->submit([this, worker = shard.get()] { runShard(*worker); });
    }
    result.shards = count;
  }

  Shard& shardOf(const Item& announced) {
    if (modeDecided && !partitioned) return *shards[0];
    std::optional<long long> key = prototype.shardKey(announced);
    if (!modeDecided) decideMode(key.has_value());
    if (!partitioned) return *shards[0];
    if (!key.has_value()) {
      throw std::logic_error(
          prototype.name() +
          ": shardKey must be engaged for all items or for none");
    }
    auto [it, inserted] = keyToShard.try_emplace(*key, nextShardRoundRobin);
    if (inserted) {
      nextShardRoundRobin = static_cast<std::uint32_t>(
          (nextShardRoundRobin + 1) % shards.size());
    }
    return *shards[it->second];
  }

  // --- Feed side ------------------------------------------------------

  void feed(const Item& item) {
    if (finished) {
      throw std::logic_error("ShardedSimulator: feed() after finish()");
    }
    arrivals.admit(item);
    rethrowIfFailed();

    Item announced = checkedAnnounce(options.announce, item);
    shardOf(announced).filling.push_back({item.id, item.size, item.arrival(),
                                          item.departure(),
                                          announced.departure()});
    ++result.items;
    maxId = std::max(maxId, item.id);

    if (options.computeLowerBound) {
      // Identical event order to StreamEngine: departures due at or
      // before this arrival first, then the arrival's size delta.
      drainLb3(item.arrival());
      lb3.onEvent(item.arrival(), item.size);
      lb3Pending.push_back({item.departure(), item.id, 0, item.size});
      std::push_heap(lb3Pending.begin(), lb3Pending.end(), laterDeparture);
      result.peakOpenItems =
          std::max(result.peakOpenItems, lb3Pending.size());
    }

    if (++epochFill >= options.epochArrivals) dispatchEpoch();
  }

  void drainLb3(Time time) {
    while (!lb3Pending.empty() && lb3Pending.front().time <= time) {
      std::pop_heap(lb3Pending.begin(), lb3Pending.end(), laterDeparture);
      lb3.onEvent(lb3Pending.back().time, -lb3Pending.back().size);
      lb3Pending.pop_back();
    }
  }

  // Hands every shard its share of the epoch, blocking on a shard whose
  // ring already holds maxEpochsInFlight batches.
  void dispatchEpoch() {
    if (epochFill == 0) return;
    epochFill = 0;
    ++result.epochs;
    for (auto& owned : shards) {
      Shard& shard = *owned;
      if (shard.filling.empty()) continue;
      MutexLock lock(shard.mutex);
      while (shard.count == shard.slots.size()) shard.changed.wait(shard.mutex);
      std::size_t back = (shard.front + shard.count) % shard.slots.size();
      std::swap(shard.filling, shard.slots[back]);
      ++shard.count;
      shard.changed.notify_one();
    }
  }

  void closeRings() {
    for (auto& owned : shards) {
      Shard& shard = *owned;
      MutexLock lock(shard.mutex);
      shard.closed = true;
      shard.changed.notify_one();
    }
  }

  // --- Worker side ----------------------------------------------------

  // The shard's whole run: place each batch in ring order, then, once the
  // ring is closed and empty, drain the remaining departures.
  void runShard(Shard& shard) {
    Batch batch;
    for (;;) {
      {
        MutexLock lock(shard.mutex);
        while (shard.count == 0 && !shard.closed) {
          shard.changed.wait(shard.mutex);
        }
        if (shard.count == 0) break;
        std::swap(batch, shard.slots[shard.front]);
      }
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          placeBatch(shard, batch);
        } catch (...) {
          recordError(std::current_exception());
        }
      }
      batch.clear();
      MutexLock lock(shard.mutex);
      shard.front = (shard.front + 1) % shard.slots.size();
      --shard.count;
      shard.changed.notify_one();
    }
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      drainShard(shard, std::numeric_limits<Time>::infinity());
    } catch (...) {
      recordError(std::current_exception());
    }
  }

  // The shared placement step restricted to one key group: the same core
  // as StreamEngine, so drain order, validation and counted policy queries
  // are identical — the per-item bit-identity argument (DESIGN.md §14).
  // The per-placement scan histogram is skipped: with concurrent shards
  // the global fit-check counter cannot be attributed to one placement
  // (the run_many caveat); the aggregate counter stays exact.
  void placeBatch(Shard& shard, const Batch& batch) {
    const bool capture = options.capturePlacements;
    for (const Arrival& a : batch) {
      drainShard(shard, a.arrival);
      const Item item(a.id, a.size, a.arrival, a.departure);
      const Item announced(a.id, a.size, a.arrival, a.announcedDeparture);
      Placement placed = shard.core.place(item, announced);
      if (placed.openedNewBin) shard.opens.push_back({a.arrival, item.id});
      if (capture) shard.placements.emplace_back(item.id, placed.bin);
    }
  }

  // Drains the shard's departures due at or before `time`, logging every
  // bin close for the merge.
  static void drainShard(Shard& shard, Time time) {
    shard.core.drainUntil(time, [&shard](const PendingDeparture& dep,
                                         bool closed) {
      if (closed) shard.closes.push_back({dep.time, dep.item});
    });
  }

  // --- Finish & global reconstruction ---------------------------------

  ShardedResult finish() {
    if (finished) {
      throw std::logic_error("ShardedSimulator: finish() called twice");
    }
    finished = true;

    if (!modeDecided) {
      // Zero items: an empty result with one (unused) shard.
      result.shards = 0;
      return std::move(result);
    }

    dispatchEpoch();
    closeRings();
    pool->wait();
    rethrowIfFailed();

    if (options.computeLowerBound) {
      drainLb3(std::numeric_limits<Time>::infinity());
      result.lb3 = lb3.total();
    }

    mergeShards();
    return std::move(result);
  }

  // Reconstructs the single-pool run's global view from the per-shard
  // logs. Bin open/close events merge in (time, kind, id) order —
  // closes (departures) before opens (arrivals)
  // at equal instants — which is exactly the order the single-pool
  // engines open and close bins in. Walking opens in that order yields:
  //   * global bin ids (BinManager assigns ids in opening order),
  //   * totalUsage accumulated in global bin-id order — the addition
  //     order of Packing::totalUsage(), hence the identical double,
  //   * maxOpenBins as the running open count sampled after each open
  //     (the single-pool count only grows at opens, and every open is
  //     sampled by its own arrival there too).
  // Every log is already a sorted run: a shard's opens follow admission
  // order, which ArrivalValidator makes (arrival, id) order, and its
  // closes follow the departure heap's (time, id) pops, where an item fed
  // later departs strictly after every departure already drained. So the
  // merge walks 2 x shards cursors instead of sorting; every key is
  // unique, so the order is the one a sort would give.
  void mergeShards() {
    struct Cursor {  // the next unmerged event of one shard's log
      Time time;
      ItemId item;
      std::uint8_t kind;  // 0 = close, 1 = open: departures drain first
      std::uint32_t shard;
      std::size_t pos;
    };
    auto later = [](const Cursor& a, const Cursor& b) {
      if (a.time != b.time) return a.time > b.time;
      if (a.kind != b.kind) return a.kind > b.kind;
      return a.item > b.item;
    };
    // Loads the event at `c.pos` of its log; false once the log is spent.
    auto load = [this](Cursor& c) {
      const Shard& shard = *shards[c.shard];
      const std::vector<BinLogRec>& log = c.kind == 1 ? shard.opens
                                                      : shard.closes;
      if (c.pos == log.size()) return false;
      c.time = log[c.pos].time;
      c.item = log[c.pos].item;
      return true;
    };

    std::vector<Cursor> heap;  // min-heap on (time, kind, item)
    heap.reserve(2 * shards.size());
    for (const auto& shard : shards) {
      CDBP_DCHECK(std::is_sorted(shard->opens.begin(), shard->opens.end(),
                                 logOrder),
                  "shard ", shard->index, " opened bins out of order");
      CDBP_DCHECK(std::is_sorted(shard->closes.begin(), shard->closes.end(),
                                 logOrder),
                  "shard ", shard->index, " closed bins out of order");
      for (std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{1}}) {
        Cursor c{0, 0, kind, static_cast<std::uint32_t>(shard->index), 0};
        if (load(c)) heap.push_back(c);
      }
    }
    std::make_heap(heap.begin(), heap.end(), later);

    std::vector<std::vector<BinId>> localToGlobal;
    if (options.capturePlacements) {
      localToGlobal.resize(shards.size());
      for (const auto& shard : shards) {
        localToGlobal[shard->index].assign(shard->opens.size(), kUnassigned);
      }
    }

    Time totalUsage = 0;
    std::size_t openNow = 0;
    std::size_t maxOpen = 0;
    BinId nextGlobal = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor& e = heap.back();
      if (e.kind == 1) {
        const auto localBin = e.pos;  // opens are logged in local-id order
        totalUsage += shards[e.shard]->core.usageByBin()[localBin];
        if (options.capturePlacements) {
          localToGlobal[e.shard][localBin] = nextGlobal;
        }
        ++nextGlobal;
        ++openNow;
        maxOpen = std::max(maxOpen, openNow);
      } else {
        --openNow;
      }
      ++e.pos;
      if (load(e)) {
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    }

    result.totalUsage = totalUsage;
    result.binsOpened = static_cast<std::size_t>(nextGlobal);
    result.maxOpenBins = maxOpen;
    result.categoriesUsed = 0;
    for (const auto& shard : shards) {
      result.categoriesUsed += shard->core.bins().categoriesUsed();
    }
    if (options.capturePlacements) {
      result.binOf.assign(static_cast<std::size_t>(maxId) + 1, kUnassigned);
      for (const auto& shard : shards) {
        const auto& map = localToGlobal[shard->index];
        for (const auto& [item, localBin] : shard->placements) {
          result.binOf[item] = map[static_cast<std::size_t>(localBin)];
        }
      }
    }
  }
};

ShardedSimulator::ShardedSimulator(OnlinePolicy& prototype,
                                   const ShardedOptions& options)
    : impl_(std::make_unique<Impl>(prototype, options)) {}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::feed(const Item& item) { impl_->feed(item); }

ShardedResult ShardedSimulator::finish() { return impl_->finish(); }

ShardedResult simulateSharded(ArrivalSource& source, OnlinePolicy& prototype,
                              const ShardedOptions& options) {
  ShardedSimulator sim(prototype, options);
  StreamItem incoming;
  ItemId nextId = 0;
  while (source.next(incoming)) {
    if (nextId == std::numeric_limits<ItemId>::max()) {
      throw std::invalid_argument("simulateSharded: item id space exhausted");
    }
    sim.feed(Item(nextId++, incoming.size, incoming.arrival,
                  incoming.departure));
  }
  return sim.finish();
}

}  // namespace cdbp
