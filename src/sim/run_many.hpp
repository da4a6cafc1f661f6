// runMany: the parallel experiment runner.
//
// Every sweep-style evaluation in this repo is the same shape — a grid of
// (instance generator × policy spec × seed) cells, each an independent
// simulateOnline call. runMany fans that grid over the shared ThreadPool
// and returns one RunResult per cell with the guarantees the bench mains
// rely on:
//
//  * Determinism: results arrive in grid order (instance-major, then
//    policy, then seed) regardless of thread count or scheduling, and each
//    cell's outcome depends only on (generator, spec, seed) — policies are
//    constructed fresh inside the cell from their spec string, so no state
//    leaks between cells. The same grid run with --threads 1 and
//    --threads N is element-wise identical.
//
//  * Telemetry isolation: everything attributable to a run — the policy
//    instance, the SimOptions, the SimResult — is private to the cell.
//    The global metrics Registry is process-wide by design (relaxed-atomic
//    counters are cheap precisely because they are shared), so registry
//    counters aggregate across concurrent cells; read them as fleet
//    totals, not per-run numbers (DESIGN.md §9.3).
//
//  * Shared inputs: each (instance, seed) pair is generated once and
//    shared read-only by all policy cells, as is its Proposition 3 lower
//    bound — the expensive parts of a sweep are not recomputed per policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "online/policy_factory.hpp"
#include "sim/simulator.hpp"

namespace cdbp {

/// One policy axis entry: a spec string, optionally overridden by an
/// explicit factory for policies the spec grammar cannot express (custom
/// test policies, preconfigured instances). The factory, when set, must be
/// callable concurrently — it is invoked once per cell.
struct RunPolicy {
  std::string spec;
  std::function<PolicyPtr(const PolicyContext&)> factory;

  RunPolicy() = default;
  RunPolicy(std::string s) : spec(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  RunPolicy(const char* s) : spec(s) {}  // NOLINT(google-explicit-constructor)
  RunPolicy(std::string label,
            std::function<PolicyPtr(const PolicyContext&)> make)
      : spec(std::move(label)), factory(std::move(make)) {}
};

struct RunManySpec {
  /// Instance axis: generators mapping a seed to an Instance.
  std::vector<std::function<Instance(std::uint64_t)>> instances;
  /// Policy axis: spec strings (or labeled factories).
  std::vector<RunPolicy> policies;
  /// Seed axis.
  std::vector<std::uint64_t> seeds;

  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Placement engine for every cell.
  PlacementEngine engine = PlacementEngine::kIndexed;
  /// Worker threads per cell when engine == kSharded (SimOptions::
  /// shardedThreads). Keep threads * shardedThreads near the core count:
  /// the grid fan-out and the per-cell shard fan-out multiply.
  std::size_t shardedThreads = 1;
  /// Compute the Proposition 3 lower bound (and ratio) per instance.
  bool computeLowerBound = true;
  /// Fixed PolicyContext for spec instantiation. When unset, each cell
  /// derives PolicyContext::forInstance(instance, seed) — specs with
  /// context defaults then self-tune to the instance they run on.
  std::optional<PolicyContext> context;
};

/// One grid cell's outcome. The shared instance pointer keeps
/// `sim.packing` (which references the instance) valid for the result's
/// lifetime.
struct RunResult {
  std::size_t instanceIndex = 0;
  std::size_t policyIndex = 0;
  std::size_t seedIndex = 0;
  std::uint64_t seed = 0;
  std::string policyName;
  std::shared_ptr<const Instance> instance;
  SimResult sim;
  /// Proposition 3 lower bound (0 when computeLowerBound is false).
  double lb3 = 0;
  /// sim.totalUsage / lb3 (1 when the bound is 0 or disabled).
  double ratio = 1;
};

/// Runs the full grid; returns instances.size() * policies.size() *
/// seeds.size() results in grid order (instance-major, then policy, then
/// seed). Exceptions thrown by generators, specs, or simulations propagate
/// out of runMany (first one wins, per ThreadPool::wait).
std::vector<RunResult> runMany(const RunManySpec& spec);

/// Instance-axis entry replaying a trace file (workload/trace_io.hpp):
/// the seed is ignored — every seed-axis cell sees the same recorded
/// workload, so seeds only vary the policy side (e.g. rf's RNG). The file
/// is re-read per generator call; runMany's phase-1 sharing means that is
/// once per (instance, seed) pair, not once per policy. Errors surface as
/// TraceError out of runMany.
std::function<Instance(std::uint64_t)> traceFileInstanceAxis(std::string path);

/// The bare fan-out underneath runMany, for sweeps whose cells are not
/// scalar simulateOnline calls (the multidim and flexible benches): runs
/// fn(0..count-1) over a ThreadPool with `threads` workers (0 = hardware
/// concurrency). fn must be safe to call concurrently; write results into
/// pre-sized slots indexed by the cell id to keep the sweep deterministic
/// under any thread count. Exceptions propagate (first one wins).
void runCells(unsigned threads, std::size_t count,
              const std::function<void(std::size_t)>& fn);

}  // namespace cdbp
