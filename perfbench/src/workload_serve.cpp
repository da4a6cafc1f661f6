// serve: the placement daemon (2 loop threads, in this process) driven by
// 2 client threads on 2 connections, tenants `ff` and `cdt-ff`, with
// sparse items so the engine does little and framing, session dispatch
// and the epoll loop do most of the work. Two client threads plus two
// loop threads keep the busy threads at 4.
//
//   Phase A: open loop of single PLACE frames on a seeded schedule fixed
//            before the run (Poisson, kOfferedRate per connection, about a
//            fifth of a connection's closed-loop rate). Latency is timed
//            from when each request was due, so a stall also delays every
//            request queued behind it. A SCRAPE goes out every ~100 ms.
//   Phase B: closed loop of BATCH frames of kBatch placements, with
//            kBatchWindow frames in flight per connection.
//   Then each tenant DRAINs; the result must equal a local StreamEngine
//   run on the same items.
//
// The bounded latency (p50_us) is the BATCH round trip of phase B. Phase
// A's latencies, timed from the due time, are reported by the traced run:
// on a shared VM host, preemption of the spinning generator dominates them
// (README.md, "Tail latency is per-layer").
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <random>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "online/policy_factory.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/streaming.hpp"
#include "telemetry/registry.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

namespace serve = cdbp::serve;

constexpr unsigned kLoopThreads = 2;
constexpr std::size_t kClients = 2;
constexpr double kOfferedRate = 10000;  // PLACE frames per second per connection
constexpr std::size_t kBatch = 256;
constexpr std::size_t kBatchWindow = 8;
constexpr auto kScrapeEvery = std::chrono::milliseconds(100);
const char* const kTenantPolicies[kClients] = {"ff", "cdt-ff"};

/// Barrier completion: fixes the common phase A start 1 ms ahead.
struct StartClock {
  std::atomic<std::uint64_t>* start;
  void operator()() noexcept {
    start->store(nowNs() + 1'000'000, std::memory_order_relaxed);
  }
};

struct Outcome {
  std::uint64_t items = 0;
  double totalUsage = 0;
  std::uint64_t binsOpened = 0;
  std::uint64_t maxOpenBins = 0;
  double lb3 = 0;

  bool operator==(const Outcome&) const = default;
};

struct Tenant {
  cdbp::PolicyContext context;
  std::vector<cdbp::StreamItem> items;  // phase A items, then phase B items
  std::vector<std::uint64_t> dueOffsetNs;  // phase A schedule
  Outcome reference;
};

/// What one client thread measured.
struct ClientRun {
  std::vector<double> latencyUs;  // phase A, from the due time
  std::vector<double> rttUs;      // phase A, from the send time
  std::vector<double> lagUs;      // phase A, send time minus due time
  std::vector<double> batchRttUs; // phase B, BATCH send to its reply
  std::uint64_t phaseBStart = 0;
  std::uint64_t phaseBEnd = 0;
  std::uint64_t placed = 0;
  std::uint64_t errors = 0;
  std::vector<std::string> failures;
  Outcome drained;
  bool drainedOk = false;
  double cpuSeconds = 0;
  double unaccounted = 0;
};

serve::Client adopt(serve::Server& server) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("serve: socketpair failed");
  }
  server.adoptConnection(fds[1]);
  return serve::Client(fds[0]);
}

Outcome localRun(const Tenant& tenant, const char* spec,
                 std::vector<double>* placeUs) {
  cdbp::PolicyPtr policy = cdbp::makePolicy(spec, tenant.context);
  cdbp::StreamEngine engine(*policy);
  for (const cdbp::StreamItem& item : tenant.items) {
    std::uint64_t t0 = placeUs != nullptr ? nowNs() : 0;
    engine.place(item);
    if (placeUs != nullptr) {
      placeUs->push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
  }
  cdbp::StreamResult r = engine.finish();
  return {r.items, r.totalUsage, r.binsOpened, r.maxOpenBins, r.lb3};
}

/// p50 of the registry histogram's growth between two snapshots,
/// interpolated inside its log2 bucket.
double histogramDeltaP50(const cdbp::telemetry::RegistrySnapshot& before,
                         const cdbp::telemetry::RegistrySnapshot& after,
                         const std::string& name) {
  using cdbp::telemetry::Histogram;
  std::vector<double> counts(Histogram::kBuckets, 0);
  auto accumulate = [&](const cdbp::telemetry::RegistrySnapshot& s, double sign) {
    for (const auto& [histName, h] : s.histograms) {
      if (histName != name) continue;
      for (const auto& [bucket, count] : h.buckets) {
        counts[bucket] += sign * static_cast<double>(count);
      }
    }
  };
  accumulate(after, 1);
  accumulate(before, -1);
  double total = 0;
  for (double c : counts) total += c;
  if (total <= 0) return 0;
  double seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] <= 0) continue;
    if (seen + counts[b] >= total / 2) {
      double lo = static_cast<double>(Histogram::bucketFloor(b));
      double hi = b == 0 ? 1 : lo * 2;
      return lo + (hi - lo) * ((total / 2 - seen) / counts[b]);
    }
    seen += counts[b];
  }
  return 0;
}

class Serve final : public Workload {
 public:
  void setup(const RunConfig& config) override {
    server_.reset();
    std::size_t phaseA = config.small ? 2000 : 5000;
    std::size_t phaseB = config.small ? 20000 : 200000;
    phaseAItems_ = phaseA;
    for (std::size_t c = 0; c < kClients; ++c) {
      Tenant& t = tenants_[c];
      cdbp::WorkloadSpec spec;  // sparse: rate 4, mu 16 keeps few jobs live
      spec.numItems = phaseA + phaseB;
      cdbp::Instance instance =
          cdbp::generateWorkload(spec, config.seed * kClients + c);
      t.context = cdbp::PolicyContext::forInstance(instance, config.seed);
      t.items.clear();
      for (const cdbp::Item& item : instance.sortedByArrival()) {
        t.items.push_back({item.size, item.arrival(), item.departure()});
      }
      std::mt19937_64 rng(config.seed * 7919 + c);
      std::exponential_distribution<double> gap(kOfferedRate);
      t.dueOffsetNs.clear();
      double offset = 0;
      for (std::size_t i = 0; i < phaseA; ++i) {
        offset += gap(rng);
        t.dueOffsetNs.push_back(static_cast<std::uint64_t>(offset * 1e9));
      }
      t.reference = localRun(t, kTenantPolicies[c], nullptr);
      if (config.corruptReference) t.reference.totalUsage += 1.0;
    }
    serve::ServerOptions options;
    options.loopThreads = kLoopThreads;
    server_ = std::make_unique<serve::Server>(options);
    server_->start();
  }

  void teardown() override { server_.reset(); }

  Metrics iterate(bool traced, Tally& tally, Metrics& layers) override {
    serve::Server& server = *server_;
    serve::ServerStats stats0 = server.stats();
    std::vector<std::uint64_t> conns0 = server.shardConnectionCounts();
    auto registry0 = cdbp::telemetry::Registry::global().snapshot();
    double processCpu0 = processCpuSeconds();
    double mainCpu0 = threadCpuSeconds();

    std::uint64_t start = nowNs();
    Scope root(Layer::kIteration, true);
    std::vector<serve::Client> clients;
    for (std::size_t c = 0; c < kClients; ++c) clients.push_back(adopt(server));
    serve::Client scraper = adopt(server);

    std::atomic<std::uint64_t> phaseAStart{0};
    std::barrier<StartClock> ready(kClients + 1, StartClock{&phaseAStart});
    std::barrier<> phaseB(kClients);
    std::mutex doneMu;
    std::condition_variable doneCv;
    std::size_t done = 0;

    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        clientThread(c, clients[c], runs[c], ready, phaseAStart, phaseB);
        std::lock_guard<std::mutex> lock(doneMu);
        ++done;
        doneCv.notify_all();
      });
    }

    // Scrape beside the load until both clients are done.
    std::vector<double> scrapeUs;
    std::uint64_t scrapeErrors = 0;
    ready.arrive_and_wait();
    for (;;) {
      std::uint64_t t0 = nowNs();
      try {
        Scope scope(Layer::kServeScrape);
        scraper.scrape();
      } catch (const std::exception&) {
        ++scrapeErrors;
      }
      scrapeUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
      std::unique_lock<std::mutex> lock(doneMu);
      if (doneCv.wait_for(lock, kScrapeEvery, [&] { return done == kClients; })) {
        break;
      }
    }
    for (std::thread& t : threads) t.join();
    root.stop();
    double wall = secondsSince(start);
    double processCpu = processCpuSeconds() - processCpu0;
    double mainCpu = threadCpuSeconds() - mainCpu0;

    // Checks: every placement answered, no ERROR frame, DRAIN == local.
    std::vector<double> latencyUs, rttUs, lagUs, batchRttUs, ratios;
    std::uint64_t bStart = ~std::uint64_t{0}, bEnd = 0, placed = 0;
    double clientCpu = mainCpu;
    double unaccounted = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      ClientRun& run = runs[c];
      std::string tenant = kTenantPolicies[c];
      for (const std::string& f : run.failures) tally.check(false, f);
      tally.ops(tenants_[c].items.size(), run.errors);
      tally.check(run.placed == tenants_[c].items.size(),
                  tenant + ": not every placement was answered");
      tally.check(run.drainedOk && run.drained == tenants_[c].reference,
                  tenant + ": DRAIN differs from the local StreamEngine run");
      latencyUs.insert(latencyUs.end(), run.latencyUs.begin(), run.latencyUs.end());
      rttUs.insert(rttUs.end(), run.rttUs.begin(), run.rttUs.end());
      lagUs.insert(lagUs.end(), run.lagUs.begin(), run.lagUs.end());
      batchRttUs.insert(batchRttUs.end(), run.batchRttUs.begin(), run.batchRttUs.end());
      if (run.drained.lb3 > 0) ratios.push_back(run.drained.totalUsage / run.drained.lb3);
      bStart = std::min(bStart, run.phaseBStart);
      bEnd = std::max(bEnd, run.phaseBEnd);
      placed += run.placed;
      clientCpu += run.cpuSeconds;
      unaccounted = std::max(unaccounted, run.unaccounted);
    }
    tally.ops(scrapeUs.size(), scrapeErrors);
    if (ratios.size() != kClients) {
      throw std::runtime_error("serve: a tenant returned no DRAIN result");
    }

    std::size_t phaseBJobs = 0;
    for (const Tenant& t : tenants_) phaseBJobs += t.items.size() - phaseAItems_;
    Metrics m;
    m["wall_s"] = wall;
    m["jobs_per_s"] = bEnd > bStart ? static_cast<double>(phaseBJobs) /
                                          (static_cast<double>(bEnd - bStart) / 1e9)
                                    : 0;
    m["p50_us"] = percentile(batchRttUs, 50);
    m["p99_us"] = percentile(batchRttUs, 99);
    m["usage_over_lb3"] = geometricMean(ratios);
    // Phase A, as an open-loop user sees it (per-layer, see the top).
    layers["serve.place_rtt_p50_us"] = percentile(rttUs, 50);
    layers["serve.due_p50_us"] = percentile(latencyUs, 50);
    layers["serve.due_p99_us"] = percentile(latencyUs, 99);
    layers["harness.gen_lag_p99_us"] = percentile(lagUs, 99);
    if (!traced) return m;

    serve::ServerStats stats1 = server.stats();
    std::vector<std::uint64_t> conns1 = server.shardConnectionCounts();
    auto registry1 = cdbp::telemetry::Registry::global().snapshot();
    double connMax = 0, connSum = 0;
    for (std::size_t i = 0; i < conns1.size(); ++i) {
      double n = static_cast<double>(conns1[i] - conns0[i]);
      connMax = std::max(connMax, n);
      connSum += n;
    }
    double jobs = static_cast<double>(placed);
    double daemonCpu = std::max(0.0, processCpu - clientCpu);

    // The same items placed in process, for the served overhead.
    std::vector<double> localUs;
    for (std::size_t c = 0; c < kClients; ++c) {
      Tenant phaseAOnly = tenants_[c];
      phaseAOnly.items.resize(phaseAItems_);
      localRun(phaseAOnly, kTenantPolicies[c], &localUs);
    }

    layers["serve.client_cpu_s"] = clientCpu;
    layers["serve.daemon_cpu_s"] = daemonCpu;
    layers["serve.daemon_cpu_us_per_job"] = daemonCpu / jobs * 1e6;
    layers["serve.place_ns_p50"] =
        histogramDeltaP50(registry0, registry1, "serve.place_ns");
    layers["serve.overhead_us"] = percentile(rttUs, 50) - percentile(localUs, 50);
    layers["serve.bytes_per_job"] =
        static_cast<double>((stats1.bytesReceived - stats0.bytesReceived) +
                            (stats1.bytesSent - stats0.bytesSent)) /
        jobs;
    layers["serve.throttles"] =
        static_cast<double>(stats1.throttleEvents - stats0.throttleEvents);
    layers["serve.loop_conn_imbalance"] =
        connSum > 0 ? connMax / (connSum / static_cast<double>(conns1.size())) : 0;
    layers["serve.scrape_p50_us"] = percentile(scrapeUs, 50);
    layers["serve.call_s"] =
        static_cast<double>(layerTotals(Layer::kServeCall).selfNs) / 1e9;
    layers["harness.pacing_s"] =
        static_cast<double>(layerTotals(Layer::kPacing).selfNs) / 1e9;
    layers["harness.unaccounted_frac"] = unaccounted;
    return m;
  }

 private:
  void clientThread(std::size_t c, serve::Client& client, ClientRun& run,
                    std::barrier<StartClock>& ready,
                    std::atomic<std::uint64_t>& phaseAStart,
                    std::barrier<>& phaseB) {
    labelThread("client-" + std::to_string(c));
    const Tenant& tenant = tenants_[c];
    double cpu0 = threadCpuSeconds();
    Scope root(Layer::kClientThread, true, static_cast<std::int64_t>(c));
    bool ok = true;
    auto fail = [&](const std::string& what, const std::exception& e) {
      ok = false;
      ++run.errors;
      run.failures.push_back(std::string(kTenantPolicies[c]) + ": " + what +
                             ": " + e.what());
    };
    try {
      Scope scope(Layer::kServeCall);
      serve::HelloFrame hello;
      hello.minDuration = tenant.context.minDuration;
      hello.mu = tenant.context.mu;
      hello.seed = tenant.context.seed;
      hello.tenant = "perfbench-" + std::string(kTenantPolicies[c]);
      hello.policySpec = kTenantPolicies[c];
      client.hello(hello);
    } catch (const std::exception& e) {
      fail("HELLO", e);
    }
    ready.arrive_and_wait();

    std::size_t i = 0;
    if (ok) {
      try {
        std::uint64_t start = phaseAStart.load(std::memory_order_relaxed);
        run.latencyUs.reserve(phaseAItems_);
        for (; i < phaseAItems_; ++i) {
          std::uint64_t due = start + tenant.dueOffsetNs[i];
          {
            // Spin, not sleep: a sleeping thread in a VM can wake
            // hundreds of µs late, which would be charged to the daemon.
            Scope pacing(Layer::kPacing);
            while (nowNs() < due) {
            }
          }
          std::uint64_t sent = nowNs();
          const cdbp::StreamItem& item = tenant.items[i];
          {
            Scope scope(Layer::kServeCall);
            client.place(item.size, item.arrival, item.departure);
          }
          std::uint64_t done = nowNs();
          ++run.placed;
          run.latencyUs.push_back(static_cast<double>(done - due) / 1e3);
          run.rttUs.push_back(static_cast<double>(done - sent) / 1e3);
          run.lagUs.push_back(static_cast<double>(sent - due) / 1e3);
        }
      } catch (const std::exception& e) {
        fail("phase A PLACE", e);
      }
    }
    phaseB.arrive_and_wait();

    if (ok) {
      try {
        run.phaseBStart = nowNs();
        // Keep kBatchWindow frames in flight so neither side sleeps
        // between batches; replies arrive in order.
        struct Sent {
          std::size_t ops;
          std::uint64_t atNs;
        };
        std::deque<Sent> inFlight;  // unanswered frames, oldest first
        std::vector<std::uint8_t> bytes;
        while (i < tenant.items.size() || !inFlight.empty()) {
          Scope scope(Layer::kServeCall);
          if (i < tenant.items.size() && inFlight.size() < kBatchWindow) {
            std::size_t end = std::min(i + kBatch, tenant.items.size());
            serve::BatchFrame frame;
            for (std::size_t j = i; j < end; ++j) {
              const cdbp::StreamItem& item = tenant.items[j];
              serve::BatchOp op;
              op.place = {item.size, item.arrival, item.departure};
              frame.ops.push_back(op);
            }
            bytes.clear();
            serve::appendBatch(bytes, frame);
            client.sendRaw(bytes);
            inFlight.push_back({end - i, nowNs()});
            i = end;
            continue;
          }
          serve::BatchOkFrame reply;
          if (!serve::decodeBatchOk(
                  client.expectFrame(serve::FrameType::kBatchOk).view(), reply) ||
              reply.failed != 0 || reply.results.size() != inFlight.front().ops) {
            throw std::runtime_error("BATCH failed at op " +
                                     std::to_string(reply.failedIndex) + ": " +
                                     reply.errorMessage);
          }
          run.batchRttUs.push_back(
              static_cast<double>(nowNs() - inFlight.front().atNs) / 1e3);
          run.placed += inFlight.front().ops;
          inFlight.pop_front();
        }
        run.phaseBEnd = nowNs();
        Scope scope(Layer::kServeCall);
        serve::DrainOkFrame d = client.drain();
        run.drained = {d.items, d.totalUsage, d.binsOpened, d.maxOpenBins, d.lb3};
        run.drainedOk = true;
      } catch (const std::exception& e) {
        fail("phase B BATCH/DRAIN", e);
      }
    }
    root.stop();
    run.unaccounted = unaccountedShare(threadTrace(), Layer::kClientThread);
    run.cpuSeconds = threadCpuSeconds() - cpu0;
  }

  Tenant tenants_[kClients];
  std::size_t phaseAItems_ = 0;
  std::unique_ptr<serve::Server> server_;
};

}  // namespace

std::unique_ptr<Workload> makeServe() { return std::make_unique<Serve>(); }

}  // namespace perfbench
