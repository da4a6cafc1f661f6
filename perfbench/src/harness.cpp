#include "harness.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

#include "telemetry/registry.hpp"

namespace perfbench {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double secondsSince(std::uint64_t startNs) {
  return static_cast<double>(nowNs() - startNs) / 1e9;
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void releaseFreeHeap() { malloc_trim(0); }

namespace {

/// The CPUs the process may run on, read on first use (before any pin).
const cpu_set_t& startCpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  return cpus;
}

}  // namespace

CpuTurn::CpuTurn(std::size_t turn) {
  const cpu_set_t& cpus = startCpus();
  auto count = static_cast<std::size_t>(CPU_COUNT(&cpus));
  if (count < 2) return;
  std::size_t skip = turn % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &cpus) || skip-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
    return;
  }
}

CpuTurn::~CpuTurn() {
  if (pinned_) {
    pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &startCpus());
  }
}

bool resetPeakRss() {
  // "5" resets the peak RSS to the current RSS (proc(5), clear_refs).
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

double trimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (values.front() == values.back()) return values.front();
  auto drop =
      static_cast<std::size_t>(trim * static_cast<double>(values.size()));
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double geometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double logSum = 0;
  for (double v : values) logSum += std::log(v);
  return std::exp(logSum / static_cast<double>(values.size()));
}

// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};

struct TraceSet {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
};

TraceSet& traceSet() {
  static TraceSet set;
  return set;
}

}  // namespace

const char* layerName(Layer layer) {
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(Layer::kCount)>
      kNames = {"harness.iteration", "harness.client_thread",
                "harness.pacing",    "trace_io.next",
                "sharded.feed",      "sharded.finish",
                "online.shard_key",  "online.place",
                "online.clone",      "streaming.drain_until",
                "streaming.place",   "streaming.finish",
                "run_many.wait",
                "core.lower_bounds", "offline.ddff",
                "offline.dual_coloring", "serve.client_call",
                "serve.scrape"};
  return kNames[static_cast<std::size_t>(layer)];
}

void setTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

ThreadTrace& threadTrace() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    TraceSet& set = traceSet();
    std::lock_guard<std::mutex> lock(set.mu);
    set.traces.push_back(std::make_unique<ThreadTrace>());
    mine = set.traces.back().get();
    mine->label = "thread-" + std::to_string(set.traces.size() - 1);
  }
  return *mine;
}

void labelThread(const std::string& label) { threadTrace().label = label; }

void clearTraces() {
  TraceSet& set = traceSet();
  std::lock_guard<std::mutex> lock(set.mu);
  for (auto& trace : set.traces) {
    trace->layers = {};
    trace->spans.clear();
    trace->stack.clear();
  }
}

LayerTotals layerTotals(Layer layer) {
  TraceSet& set = traceSet();
  std::lock_guard<std::mutex> lock(set.mu);
  LayerTotals sum;
  for (const auto& trace : set.traces) {
    const LayerTotals& t = trace->layers[static_cast<std::size_t>(layer)];
    sum.totalNs += t.totalNs;
    sum.selfNs += t.selfNs;
    sum.calls += t.calls;
  }
  return sum;
}

std::vector<const ThreadTrace*> allTraces() {
  TraceSet& set = traceSet();
  std::lock_guard<std::mutex> lock(set.mu);
  std::vector<const ThreadTrace*> out;
  for (const auto& trace : set.traces) out.push_back(trace.get());
  return out;
}

Scope::Scope(Layer layer, bool record, std::int64_t id) : layer_(layer) {
  if (!tracing()) return;
  trace_ = &threadTrace();
  ThreadTrace::Frame frame;
  startNs_ = nowNs();
  if (record) {
    SpanRecord span;
    span.layer = layer;
    span.startNs = startNs_;
    span.id = id;
    for (auto it = trace_->stack.rbegin(); it != trace_->stack.rend(); ++it) {
      if (it->span >= 0) {
        span.parent = it->span;
        break;
      }
    }
    frame.span = static_cast<std::int32_t>(trace_->spans.size());
    trace_->spans.push_back(span);
  }
  trace_->stack.push_back(frame);
}

std::uint64_t Scope::stop() {
  if (trace_ == nullptr) return 0;
  std::uint64_t end = nowNs();
  std::uint64_t elapsed = end - startNs_;
  ThreadTrace::Frame frame = trace_->stack.back();
  trace_->stack.pop_back();
  LayerTotals& totals = trace_->layers[static_cast<std::size_t>(layer_)];
  totals.totalNs += elapsed;
  totals.selfNs += elapsed - std::min(elapsed, frame.childNs);
  ++totals.calls;
  if (frame.span >= 0) {
    trace_->spans[static_cast<std::size_t>(frame.span)].endNs = end;
  }
  if (!trace_->stack.empty()) trace_->stack.back().childNs += elapsed;
  trace_ = nullptr;
  return elapsed;
}

double unaccountedShare(const ThreadTrace& trace, Layer root) {
  const LayerTotals& t = trace.layers[static_cast<std::size_t>(root)];
  if (t.totalNs == 0) return 0;
  return static_cast<double>(t.selfNs) / static_cast<double>(t.totalNs);
}

// ---------------------------------------------------------------------------

std::shared_ptr<ProbeCounters> ProbeRegistry::add() {
  auto counters = std::make_shared<ProbeCounters>();
  counters->createdNs = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(counters);
  return counters;
}

std::vector<ProbeCounters> ProbeRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProbeCounters> out;
  out.reserve(counters_.size());
  for (const auto& c : counters_) out.push_back(*c);
  return out;
}

ProbePolicy::ProbePolicy(cdbp::PolicyPtr inner, ProbeRegistry& registry,
                         bool timeCalls)
    : inner_(std::move(inner)),
      registry_(&registry),
      timeCalls_(timeCalls),
      counters_(registry.add()) {}

ProbePolicy::~ProbePolicy() { counters_->destroyedNs = nowNs(); }

cdbp::PlacementDecision ProbePolicy::place(const cdbp::PlacementView& view,
                                           const cdbp::Item& item) {
  if (!timeCalls_) return inner_->place(view, item);
  Scope scope(Layer::kPolicyPlace);
  cdbp::PlacementDecision decision = inner_->place(view, item);
  counters_->placeNs += scope.stop();
  ++counters_->places;
  return decision;
}

void ProbePolicy::reset() {
  counters_->resetNs = nowNs();
  inner_->reset();
}

std::optional<long long> ProbePolicy::shardKey(const cdbp::Item& item) const {
  if (!timeCalls_) return inner_->shardKey(item);
  Scope scope(Layer::kShardKey);
  return inner_->shardKey(item);
}

std::unique_ptr<cdbp::OnlinePolicy> ProbePolicy::clone() const {
  Scope scope(Layer::kPolicyClone);
  cdbp::PolicyPtr copy = inner_->clone();
  if (!copy) return nullptr;
  return std::make_unique<ProbePolicy>(std::move(copy), *registry_, timeCalls_);
}

// ---------------------------------------------------------------------------

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Tally::ops(std::uint64_t count, std::uint64_t bad) {
  attempted += count;
  failed += bad;
}

std::uint64_t registryCounter(const std::string& name) {
  return cdbp::telemetry::Registry::global().snapshot().counter(name);
}

}  // namespace perfbench
