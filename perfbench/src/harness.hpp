// Shared machinery of the cdbp benchmark: clocks, process resources, the
// traced-run span recorder, the probe policy decorator and the workload
// interface. Everything here lives outside src/: the benchmark measures
// the library only through its public functions.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "online/policy.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks and process resources.

std::uint64_t nowNs();
double secondsSince(std::uint64_t startNs);
/// User + system CPU of the whole process (getrusage RUSAGE_SELF).
double processCpuSeconds();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double threadCpuSeconds();
/// Returns freed heap to the kernel, so memory the set-up released is not
/// counted as resident by the iterations that follow.
void releaseFreeHeap();

/// Pins the calling thread to one CPU of the set the process started on,
/// the `turn`-th one (wrapping), until destruction restores that set. The
/// host gives each vCPU its own speed for seconds to minutes at a time (a
/// parse-bound loop read 2.2k and 3.6k lines/ms on two vCPUs at once), and
/// the kernel keeps a busy thread on one vCPU, so a run whose result waits
/// on one thread measures whichever vCPU it landed on. Giving each
/// iteration the next turn spreads that thread over every vCPU in turn.
/// Threads created while it is pinned inherit the pin: open it after the
/// worker threads of the iteration exist.
class CpuTurn {
 public:
  explicit CpuTurn(std::size_t turn);
  ~CpuTurn();

  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  bool pinned_ = false;
};

/// Resets the kernel's resident-set high-water mark to the current RSS,
/// so peakRssMb() covers only what runs afterwards. Returns false when the
/// kernel refuses; peakRssMb() then covers the whole process.
bool resetPeakRss();
/// Resident-set high-water mark in MiB (VmHWM, falling back to ru_maxrss).
double peakRssMb();

/// Linear-interpolated percentile (q in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Mean of the values left after dropping the lowest and the highest
/// `trim` share (rounded down) of them; a sample whose values are all
/// equal gives that value exactly.
double trimmedMean(std::vector<double> values, double trim);
double geometricMean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Traced-run recorder.
//
// A Scope times one call into a layer. Scopes nest per thread, so each
// layer's self time is its duration minus the time of the scopes opened
// inside it on the same thread. Every thread keeps its own totals and span
// list (no state shared between threads on the hot path); they are summed
// only after the threads that wrote them have been joined. Per-call scopes
// on hot paths (one per job) add to the totals only; scopes opened with
// `record` also keep a span (name, start, end, parent, id) that is written
// out when the benchmark ends. With tracing off a Scope does nothing.

enum class Layer : std::size_t {
  kIteration,       // harness: one measured iteration (root on its thread)
  kClientThread,    // harness: one serve client thread (root on its thread)
  kPacing,          // harness: open-loop generator waiting for a due time
  kTraceParse,      // workload/trace_io: TraceArrivalSource::next
  kShardedFeed,     // sim/sharded: ShardedSimulator::feed
  kShardedFinish,   // sim/sharded: ShardedSimulator::finish
  kShardKey,        // online: OnlinePolicy::shardKey
  kPolicyPlace,     // online: OnlinePolicy::place
  kPolicyClone,     // online: OnlinePolicy::clone
  kStreamDrain,     // sim/streaming: StreamEngine::drainUntil
  kStreamPlace,     // sim/streaming: StreamEngine::place (self = commit)
  kStreamFinish,    // sim/streaming: StreamEngine::finish
  kRunMany,         // sim/run_many: runMany / runCells, as the caller waits
  kLowerBounds,     // core: lowerBounds
  kDdff,            // offline: durationDescendingFirstFit
  kDualColoring,    // offline: dualColoring
  kServeCall,       // serve: Client request/reply (PLACE, BATCH, DRAIN, HELLO)
  kServeScrape,     // serve: Client::scrape
  kCount
};

const char* layerName(Layer layer);

struct LayerTotals {
  std::uint64_t totalNs = 0;
  std::uint64_t selfNs = 0;
  std::uint64_t calls = 0;
};

struct SpanRecord {
  Layer layer = Layer::kIteration;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::int32_t parent = -1;  // index into the same thread's spans, -1 = root
  std::int64_t id = -1;      // shard, connection or cell id; -1 = none
};

struct ThreadTrace {
  std::string label;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> layers{};
  std::vector<SpanRecord> spans;

  struct Frame {
    std::uint64_t childNs = 0;
    std::int32_t span = -1;
  };
  std::vector<Frame> stack;
};

void setTracing(bool on);
bool tracing();
/// The calling thread's trace (created and registered on first use).
ThreadTrace& threadTrace();
/// Names the calling thread's trace in the span dump.
void labelThread(const std::string& label);
/// Clears every thread's totals and spans. Call only while no scope is
/// open on any thread.
void clearTraces();
/// Sum of one layer's totals over every thread.
LayerTotals layerTotals(Layer layer);
/// Every thread's trace, for the span dump and per-thread coverage.
std::vector<const ThreadTrace*> allTraces();

class Scope {
 public:
  explicit Scope(Layer layer, bool record = false, std::int64_t id = -1);
  ~Scope() { stop(); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Closes the scope early; returns its duration (0 when tracing is off).
  std::uint64_t stop();

 private:
  ThreadTrace* trace_ = nullptr;  // null when tracing is off or stopped
  Layer layer_;
  std::uint64_t startNs_ = 0;
};

// ---------------------------------------------------------------------------
// Probe policy: a decorator that forwards every OnlinePolicy call and, when
// timing is on, times place/shardKey/clone. Each clone gets its own
// counters, owned through a shared_ptr so they outlive the clone inside
// the sharded engine; the list of counters is touched only when a probe is
// created (clone time), never per placement.

struct ProbeCounters {
  std::uint64_t placeNs = 0;
  std::uint64_t places = 0;
  std::uint64_t createdNs = 0;  // probe constructed (grid: cell start)
  std::uint64_t resetNs = 0;    // last reset() (simulateOnline start)
  std::uint64_t destroyedNs = 0;
};

class ProbeRegistry {
 public:
  std::shared_ptr<ProbeCounters> add();
  /// Snapshot of every probe's counters; call after the probes' threads
  /// have been joined.
  std::vector<ProbeCounters> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ProbeCounters>> counters_;
};

class ProbePolicy final : public cdbp::OnlinePolicy {
 public:
  ProbePolicy(cdbp::PolicyPtr inner, ProbeRegistry& registry, bool timeCalls);
  ~ProbePolicy() override;

  std::string name() const override { return inner_->name(); }
  bool clairvoyant() const override { return inner_->clairvoyant(); }
  cdbp::PlacementDecision place(const cdbp::PlacementView& view,
                                const cdbp::Item& item) override;
  void reset() override;
  std::optional<long long> shardKey(const cdbp::Item& item) const override;
  std::unique_ptr<cdbp::OnlinePolicy> clone() const override;

 private:
  cdbp::PolicyPtr inner_;
  ProbeRegistry* registry_;
  bool timeCalls_;
  std::shared_ptr<ProbeCounters> counters_;
};

// ---------------------------------------------------------------------------
// Workload interface.

using Metrics = std::map<std::string, double>;

struct RunConfig {
  std::uint64_t seed = 1;
  bool small = false;            // self-test scale
  bool corruptReference = false; // self-test: the checks must fire
  std::string workdir;           // scratch files (inside the checkout)
};

/// Outcome of the checks and operations of one workload run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one check; records `what` when it fails.
  void check(bool ok, const std::string& what);
  /// Counts `count` operations of which `bad` failed.
  void ops(std::uint64_t count, std::uint64_t bad = 0);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs, references and services from the seed. Called several
  /// times per run (setup_s is the median); each call replaces the last.
  virtual void setup(const RunConfig& config) = 0;

  /// One measured iteration: a fixed amount of work from inputs to checked
  /// result. Returns the end-to-end metrics that the iteration itself
  /// measures (the caller adds cpu_s and peak_rss_mb). With `traced`, the
  /// probes are on and the per-layer metrics are added to `layers`.
  virtual Metrics iterate(bool traced, Tally& tally, Metrics& layers) = 0;

  /// Releases services started by setup (the serve daemon).
  virtual void teardown() {}
};

std::unique_ptr<Workload> makeReplay();
std::unique_ptr<Workload> makeDense();
std::unique_ptr<Workload> makeServe();
std::unique_ptr<Workload> makeGrid();

/// Registry counter value (sim.fit_checks and friends); 0 when absent.
std::uint64_t registryCounter(const std::string& name);

/// Share of a thread's root scope not covered by any layer scope opened
/// inside it: the root's self time over its total time.
double unaccountedShare(const ThreadTrace& trace, Layer root);

}  // namespace perfbench
