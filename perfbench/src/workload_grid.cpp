// grid: the paper's evaluation table. Four instance families (uniform,
// Pareto and bimodal durations, VM-flavor sizes) x all 11 online policy
// specs through runMany/simulateOnline, each cell scored against the
// batch Proposition 3 bound LB3; plus DDFF and Dual Coloring on each
// instance's first jobs. The only workload that runs the batch simulator,
// run_many, batch lowerBounds and the offline algorithms.
#include "core/lower_bounds.hpp"
#include "harness.hpp"
#include "offline/ddff.hpp"
#include "offline/dual_coloring.hpp"
#include "online/policy_factory.hpp"
#include "sim/run_many.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;
const std::vector<std::string> kSpecs = {
    "ff",     "bf",        "wf",     "nf",    "rf(seed=7)",  "hybrid-ff",
    "cdt-ff", "cd-ff",     "combined-ff", "min-ext", "dep-bf"};

/// The first `count` jobs by arrival, renumbered densely.
cdbp::Instance prefix(const cdbp::Instance& instance, std::size_t count) {
  std::vector<cdbp::Item> items = instance.sortedByArrival();
  items.resize(std::min(count, items.size()));
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].id = static_cast<cdbp::ItemId>(i);
  }
  return cdbp::Instance(std::move(items));
}

class Grid final : public Workload {
 public:
  void setup(const RunConfig& config) override {
    config_ = config;
    std::size_t n = config.small ? 3000 : 15000;
    std::size_t offlineN = config.small ? 200 : 700;
    std::vector<cdbp::WorkloadSpec> families(4);
    for (cdbp::WorkloadSpec& spec : families) {
      spec.numItems = n;
      spec.arrivalRate = 100;
    }
    families[1].durations = cdbp::DurationDist::kPareto;
    families[2].durations = cdbp::DurationDist::kBimodal;
    families[3].sizes = cdbp::SizeDist::kFlavors;
    instances_.clear();
    prefixes_.clear();
    for (std::size_t f = 0; f < families.size(); ++f) {
      instances_.push_back(cdbp::generateWorkload(
          families[f], config.seed * families.size() + f));
      prefixes_.push_back(prefix(instances_.back(), offlineN));
    }
    firstUsage_.clear();
  }

  Metrics iterate(bool traced, Tally& tally, Metrics& layers) override {
    const std::size_t families = instances_.size();
    std::vector<double> lb3(families, 0);
    std::vector<cdbp::Packing> ddff(families);
    std::vector<cdbp::DualColoringResult> dual(families);
    std::vector<double> offlineCellNs(3 * families, 0);
    std::uint64_t fitChecks0 = registryCounter("sim.fit_checks");

    std::uint64_t start = nowNs();
    Scope root(Layer::kIteration, true);

    // Offline cells first, longest (Dual Coloring, ~cubic) first.
    {
      Scope wait(Layer::kRunMany, true, 0);
      cdbp::runCells(kThreads, 3 * families, [&](std::size_t cell) {
        std::size_t f = cell % families;
        std::uint64_t t0 = nowNs();
        switch (cell / families) {
          case 0: {
            Scope scope(Layer::kDualColoring, true, static_cast<std::int64_t>(cell));
            dual[f] = cdbp::dualColoring(prefixes_[f]);
            break;
          }
          case 1: {
            Scope scope(Layer::kLowerBounds, true, static_cast<std::int64_t>(cell));
            lb3[f] = cdbp::lowerBounds(instances_[f]).ceilIntegral;
            break;
          }
          default: {
            Scope scope(Layer::kDdff, true, static_cast<std::int64_t>(cell));
            ddff[f] = cdbp::durationDescendingFirstFit(prefixes_[f]);
            break;
          }
        }
        offlineCellNs[cell] = static_cast<double>(nowNs() - t0);
      });
    }

    // Online cells through runMany. Each policy is wrapped in a probe so
    // the cell's start (probe creation) and end (probe destruction) are
    // visible from outside; only the traced run times place() as well.
    ProbeRegistry probes;
    cdbp::RunManySpec spec;
    for (std::size_t f = 0; f < families; ++f) {
      const cdbp::Instance* instance = &instances_[f];
      spec.instances.push_back(
          [instance](std::uint64_t) { return *instance; });
    }
    for (const std::string& policySpec : kSpecs) {
      spec.policies.emplace_back(
          policySpec, [policySpec, &probes, traced](const cdbp::PolicyContext& ctx) {
            return std::make_unique<ProbePolicy>(
                cdbp::makePolicy(policySpec, ctx), probes, traced);
          });
    }
    spec.seeds = {config_.seed};
    spec.threads = kThreads;
    spec.computeLowerBound = false;
    std::vector<cdbp::RunResult> results;
    {
      Scope wait(Layer::kRunMany, true, 1);
      results = cdbp::runMany(spec);
    }
    root.stop();
    double wall = secondsSince(start);

    // Checks: every cell at or above LB3, offline packings valid, and
    // every repeat of the table identical to the first.
    std::vector<double> ratios;
    std::vector<double> usage;
    std::size_t jobs = 0;
    for (const cdbp::RunResult& r : results) {
      double bound = lb3[r.instanceIndex];
      if (config_.corruptReference) bound *= 1e3;
      std::string cell = kSpecs[r.policyIndex] + " on family " +
                         std::to_string(r.instanceIndex);
      tally.check(bound > 0 && r.sim.totalUsage >= bound,
                  "grid: " + cell + " usage below LB3");
      ratios.push_back(r.sim.totalUsage / lb3[r.instanceIndex]);
      usage.push_back(r.sim.totalUsage);
      jobs += r.instance->size();
    }
    for (std::size_t f = 0; f < families; ++f) {
      std::string family = " on family " + std::to_string(f);
      tally.check(!ddff[f].validate().has_value(),
                  "grid: DDFF packing invalid" + family);
      tally.check(!dual[f].packing.validate().has_value(),
                  "grid: Dual Coloring packing invalid" + family);
      jobs += 2 * prefixes_[f].size();
    }
    if (firstUsage_.empty()) {
      firstUsage_ = usage;
    } else {
      tally.check(usage == firstUsage_,
                  "grid: table differs from the first iteration");
    }
    tally.ops(jobs);

    // Cell latencies: offline cells timed directly, online cells from
    // probe creation to destruction.
    std::vector<double> cellUs;
    double cellNsSum = 0;
    for (double ns : offlineCellNs) {
      cellUs.push_back(ns / 1e3);
      cellNsSum += ns;
    }
    double simulateNs = 0;
    for (const ProbeCounters& c : probes.snapshot()) {
      double ns = static_cast<double>(c.destroyedNs - c.createdNs);
      cellUs.push_back(ns / 1e3);
      cellNsSum += ns;
      simulateNs += static_cast<double>(c.destroyedNs - c.resetNs);
    }

    Metrics m;
    m["wall_s"] = wall;
    m["jobs_per_s"] = static_cast<double>(jobs) / wall;
    m["p50_us"] = percentile(cellUs, 50);
    m["p99_us"] = percentile(cellUs, 99);
    m["usage_over_lb3"] = geometricMean(ratios);
    if (!traced) return m;

    auto seconds = [](Layer layer) {
      return static_cast<double>(layerTotals(layer).selfNs) / 1e9;
    };
    std::size_t onlineJobs = 0;
    for (const cdbp::RunResult& r : results) onlineJobs += r.instance->size();
    layers["simulator.batch_s"] = simulateNs / 1e9;
    layers["run_many.parallel_eff"] = cellNsSum / 1e9 / (wall * kThreads);
    layers["core.lb3_s"] = seconds(Layer::kLowerBounds);
    layers["offline.ddff_s"] = seconds(Layer::kDdff);
    layers["offline.dual_coloring_s"] = seconds(Layer::kDualColoring);
    layers["online.place_s"] = seconds(Layer::kPolicyPlace);
    layers["sim.fit_checks_per_job"] =
        static_cast<double>(registryCounter("sim.fit_checks") - fitChecks0) /
        static_cast<double>(onlineJobs);
    layers["harness.unaccounted_frac"] =
        unaccountedShare(threadTrace(), Layer::kIteration);
    return m;
  }

 private:
  RunConfig config_;
  std::vector<cdbp::Instance> instances_;
  std::vector<cdbp::Instance> prefixes_;
  std::vector<double> firstUsage_;
};

}  // namespace

std::unique_ptr<Workload> makeGrid() { return std::make_unique<Grid>(); }

}  // namespace perfbench
