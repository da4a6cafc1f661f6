// dense: an in-memory arrival stream heavy enough to keep ~17k jobs live
// in ~10k open bins, through StreamEngine on kIndexed in one thread, with
// First Fit then Best Fit. The fit query, the commit and the departure
// drain do all the work; parsing and shards do none. It is also the
// single-threaded baseline of the streaming engine.
#include "harness.hpp"
#include "online/policy_factory.hpp"
#include "sim/streaming.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

const char* const kPolicies[] = {"ff", "bf"};

struct Outcome {
  std::size_t items = 0;
  double totalUsage = 0;
  std::size_t binsOpened = 0;
  std::size_t maxOpenBins = 0;
  double lb3 = 0;

  bool operator==(const Outcome&) const = default;
};

class Dense final : public Workload {
 public:
  void setup(const RunConfig& config) override {
    config_ = config;
    cdbp::WorkloadSpec spec;
    spec.numItems = config.small ? 20000 : 240000;
    spec.arrivalRate = 2000;
    spec.mu = 16;
    cdbp::Instance instance = cdbp::generateWorkload(spec, config.seed);
    context_ = cdbp::PolicyContext::forInstance(instance, config.seed);
    items_.clear();
    items_.reserve(instance.size());
    for (const cdbp::Item& item : instance.sortedByArrival()) {
      items_.push_back({item.size, item.arrival(), item.departure()});
    }
    first_.clear();
  }

  Metrics iterate(bool traced, Tally& tally, Metrics& layers) override {
    std::vector<double> latencyUs;
    latencyUs.reserve(items_.size() * std::size(kPolicies));
    std::vector<double> ratios;
    std::vector<Outcome> outcomes;
    std::uint64_t fitChecks0 = registryCounter("sim.fit_checks");
    std::uint64_t departures = 0;
    CpuTurn turn(turns_++);

    std::uint64_t start = nowNs();
    Scope root(Layer::kIteration, true);
    for (const char* spec : kPolicies) {
      ProbeRegistry probes;
      cdbp::PolicyPtr policy = cdbp::makePolicy(spec, context_);
      if (traced) {
        policy = std::make_unique<ProbePolicy>(std::move(policy), probes, true);
      }
      cdbp::StreamOptions options;
      options.engine = cdbp::PlacementEngine::kIndexed;
      cdbp::StreamEngine engine(*policy, options);
      for (const cdbp::StreamItem& item : items_) {
        std::uint64_t t0 = nowNs();
        {
          Scope scope(Layer::kStreamDrain);
          departures += engine.drainUntil(item.arrival);
        }
        {
          Scope scope(Layer::kStreamPlace);
          engine.place(item);
        }
        latencyUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
      }
      cdbp::StreamResult result;
      {
        Scope scope(Layer::kStreamFinish);
        result = engine.finish();
      }
      outcomes.push_back({result.items, result.totalUsage, result.binsOpened,
                          result.maxOpenBins, result.lb3});
    }
    root.stop();
    double wall = secondsSince(start);

    std::size_t jobs = 0;
    for (std::size_t p = 0; p < outcomes.size(); ++p) {
      const Outcome& o = outcomes[p];
      std::string name = kPolicies[p];
      double bound = config_.corruptReference ? o.lb3 * 1e3 : o.lb3;
      tally.check(o.items == items_.size(), name + ": item count differs");
      tally.check(o.lb3 > 0 && o.totalUsage >= bound,
                  name + ": usage below LB3");
      ratios.push_back(o.totalUsage / o.lb3);
      jobs += o.items;
    }
    // Traced and untraced iterations (and every repeat) must agree.
    if (first_.empty()) {
      first_ = outcomes;
    } else {
      tally.check(outcomes == first_,
                  "dense: result differs from the first iteration");
    }
    tally.ops(jobs);

    Metrics m;
    m["wall_s"] = wall;
    m["jobs_per_s"] = static_cast<double>(jobs) / wall;
    m["p50_us"] = percentile(latencyUs, 50);
    m["p99_us"] = percentile(latencyUs, 99);
    m["usage_over_lb3"] = geometricMean(ratios);
    if (!traced) return m;

    auto seconds = [](Layer layer) {
      return static_cast<double>(layerTotals(layer).selfNs) / 1e9;
    };
    layers["streaming.drain_s"] = seconds(Layer::kStreamDrain);
    layers["streaming.departures"] = static_cast<double>(departures);
    layers["streaming.commit_s"] = seconds(Layer::kStreamPlace);
    layers["streaming.finish_s"] = seconds(Layer::kStreamFinish);
    layers["online.place_s"] = seconds(Layer::kPolicyPlace);
    layers["sim.fit_checks_per_job"] =
        static_cast<double>(registryCounter("sim.fit_checks") - fitChecks0) /
        static_cast<double>(jobs);
    layers["harness.unaccounted_frac"] =
        unaccountedShare(threadTrace(), Layer::kIteration);
    return m;
  }

 private:
  RunConfig config_;
  cdbp::PolicyContext context_;
  std::vector<cdbp::StreamItem> items_;
  std::vector<Outcome> first_;
  std::size_t turns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeDense() { return std::make_unique<Dense>(); }

}  // namespace perfbench
