// runMany contract tests: grid ordering, determinism across thread
// counts, shared lower bounds, and error propagation out of worker
// threads.
#include "sim/run_many.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/lower_bounds.hpp"
#include "online/any_fit.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

std::function<Instance(std::uint64_t)> generator(std::size_t items,
                                                 double mu) {
  WorkloadSpec spec;
  spec.numItems = items;
  spec.mu = mu;
  return [spec](std::uint64_t seed) { return generateWorkload(spec, seed); };
}

TEST(RunMany, ResultsArriveInGridOrder) {
  RunManySpec spec;
  spec.instances = {generator(40, 4.0), generator(60, 8.0)};
  spec.policies = {"ff", "bf", "nf"};
  spec.seeds = {5, 6};
  spec.threads = 4;
  std::vector<RunResult> results = runMany(spec);
  ASSERT_EQ(results.size(), 2u * 3u * 2u);
  std::size_t cell = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t p = 0; p < 3; ++p) {
      for (std::size_t s = 0; s < 2; ++s, ++cell) {
        EXPECT_EQ(results[cell].instanceIndex, i);
        EXPECT_EQ(results[cell].policyIndex, p);
        EXPECT_EQ(results[cell].seedIndex, s);
        EXPECT_EQ(results[cell].seed, spec.seeds[s]);
        ASSERT_NE(results[cell].instance, nullptr);
        // Instance axis controls the size; the policy axis must not.
        EXPECT_EQ(results[cell].instance->size(), i == 0 ? 40u : 60u);
      }
    }
  }
  EXPECT_EQ(results[0].policyName, "FirstFit");
  EXPECT_EQ(results[2].policyName, "BestFit");
  EXPECT_EQ(results[4].policyName, "NextFit");
}

TEST(RunMany, DeterministicAcrossThreadCounts) {
  RunManySpec spec;
  spec.instances = {generator(80, 16.0)};
  spec.policies = {"ff", "bf", "wf", "cdt-ff", "rf(seed=3)"};
  spec.seeds = {11, 12, 13};

  spec.threads = 1;
  std::vector<RunResult> serial = runMany(spec);
  spec.threads = 8;
  std::vector<RunResult> parallel = runMany(spec);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c].policyName, parallel[c].policyName) << "cell " << c;
    EXPECT_EQ(serial[c].sim.totalUsage, parallel[c].sim.totalUsage)
        << "cell " << c;
    EXPECT_EQ(serial[c].sim.binsOpened, parallel[c].sim.binsOpened)
        << "cell " << c;
    EXPECT_EQ(serial[c].sim.maxOpenBins, parallel[c].sim.maxOpenBins)
        << "cell " << c;
    EXPECT_EQ(serial[c].lb3, parallel[c].lb3) << "cell " << c;
  }
}

TEST(RunMany, SharesInstanceAndLowerBoundAcrossPolicyCells) {
  RunManySpec spec;
  spec.instances = {generator(50, 8.0)};
  spec.policies = {"ff", "bf"};
  spec.seeds = {21};
  std::vector<RunResult> results = runMany(spec);
  ASSERT_EQ(results.size(), 2u);
  // Both policy cells see the same generated instance object.
  EXPECT_EQ(results[0].instance.get(), results[1].instance.get());
  EXPECT_EQ(results[0].lb3, results[1].lb3);
  double expected = lowerBounds(*results[0].instance).ceilIntegral;
  EXPECT_EQ(results[0].lb3, expected);
  EXPECT_DOUBLE_EQ(results[0].ratio, results[0].sim.totalUsage / expected);
}

TEST(RunMany, LowerBoundCanBeDisabled) {
  RunManySpec spec;
  spec.instances = {generator(30, 4.0)};
  spec.policies = {"ff"};
  spec.seeds = {3};
  spec.computeLowerBound = false;
  std::vector<RunResult> results = runMany(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].lb3, 0.0);
  EXPECT_EQ(results[0].ratio, 1.0);
}

TEST(RunMany, EnginesProduceIdenticalResults) {
  RunManySpec spec;
  spec.instances = {generator(70, 16.0)};
  spec.policies = {"ff", "bf", "wf", "cd-ff"};
  spec.seeds = {41, 42};

  spec.engine = PlacementEngine::kIndexed;
  std::vector<RunResult> indexed = runMany(spec);
  spec.engine = PlacementEngine::kLinearScan;
  std::vector<RunResult> linear = runMany(spec);

  ASSERT_EQ(indexed.size(), linear.size());
  for (std::size_t c = 0; c < indexed.size(); ++c) {
    EXPECT_EQ(indexed[c].sim.totalUsage, linear[c].sim.totalUsage)
        << "cell " << c;
    EXPECT_EQ(indexed[c].sim.binsOpened, linear[c].sim.binsOpened)
        << "cell " << c;
  }
}

TEST(RunMany, FactoryEscapeHatchOverridesSpecParsing) {
  RunManySpec spec;
  spec.instances = {generator(25, 4.0)};
  spec.policies.emplace_back(
      "not-a-parsable-spec", [](const PolicyContext&) -> PolicyPtr {
        return std::make_unique<FirstFitPolicy>();
      });
  spec.seeds = {2};
  std::vector<RunResult> results = runMany(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].policyName, "FirstFit");
}

TEST(RunMany, FixedContextOverridesPerInstanceDerivation) {
  RunManySpec spec;
  spec.instances = {generator(40, 16.0)};
  spec.policies = {"cdt-ff"};
  spec.seeds = {7};
  PolicyContext context;
  context.minDuration = 2.0;
  context.mu = 9.0;  // rho = sqrt(9) * 2 = 6
  spec.context = context;
  std::vector<RunResult> results = runMany(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].policyName, "CDT-FF(rho=6)");
}

TEST(RunMany, BadSpecStringPropagatesAsInvalidArgument) {
  RunManySpec spec;
  spec.instances = {generator(10, 4.0)};
  spec.policies = {"no-such-policy"};
  spec.seeds = {1};
  EXPECT_THROW(runMany(spec), std::invalid_argument);
}

TEST(RunMany, GeneratorExceptionPropagates) {
  RunManySpec spec;
  spec.instances = {[](std::uint64_t) -> Instance {
    throw std::runtime_error("generator boom");
  }};
  spec.policies = {"ff"};
  spec.seeds = {1};
  EXPECT_THROW(runMany(spec), std::runtime_error);
}

TEST(RunMany, EmptyGridIsEmpty) {
  RunManySpec spec;
  EXPECT_TRUE(runMany(spec).empty());
  spec.instances = {generator(10, 4.0)};
  spec.policies = {"ff"};
  // No seeds -> no cells.
  EXPECT_TRUE(runMany(spec).empty());
}


TEST(RunCells, VisitsEveryCellExactlyOnce) {
  for (unsigned threads : {1u, 4u}) {
    std::vector<int> visits(100, 0);
    runCells(threads, visits.size(),
             [&](std::size_t i) { visits[i] += 1; });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i], 1) << "cell " << i << " threads " << threads;
    }
  }
}

TEST(RunCells, ZeroCountIsANoOp) {
  runCells(2, 0, [](std::size_t) { FAIL() << "fn must not be called"; });
}

TEST(RunCells, ExceptionsPropagate) {
  EXPECT_THROW(runCells(2, 8,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("cell boom");
                        }),
               std::runtime_error);
}

}  // namespace
}  // namespace cdbp
