// Fault injection for the epoch-sharded engine: a policy that throws from
// place() on one item must surface its error to the caller, never hang the
// feed thread or finish(), and never block the destructor. Tiny epochs and
// a pipeline depth of one keep the feed thread waiting on the workers when
// the fault lands. Every case runs under a watchdog, so a deadlock fails
// the test instead of stalling the suite.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "online/policy_factory.hpp"
#include "sim/sharded.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

constexpr const char* kFault = "injected placement fault";
constexpr ItemId kPoison = 300;

// Forwards everything to `inner` (shard key and clones included) but
// throws from place() on the poisoned item.
class ThrowOnItem final : public OnlinePolicy {
 public:
  ThrowOnItem(PolicyPtr inner, ItemId poison)
      : inner_(std::move(inner)), poison_(poison) {}

  std::string name() const override { return inner_->name(); }
  bool clairvoyant() const override { return inner_->clairvoyant(); }
  PlacementDecision place(const PlacementView& view,
                          const Item& item) override {
    if (item.id == poison_) throw std::runtime_error(kFault);
    return inner_->place(view, item);
  }
  void reset() override { inner_->reset(); }
  std::optional<long long> shardKey(const Item& item) const override {
    return inner_->shardKey(item);
  }
  PolicyPtr clone() const override {
    PolicyPtr inner = inner_->clone();
    return inner ? std::make_unique<ThrowOnItem>(std::move(inner), poison_)
                 : nullptr;
  }

 private:
  PolicyPtr inner_;
  ItemId poison_;
};

// Partitioned (cdt-ff over three workers) and single-shard (ff) runs.
const std::vector<std::string>& faultSpecs() {
  static const std::vector<std::string> specs = {"cdt-ff", "ff"};
  return specs;
}

std::vector<Item> workload() {
  WorkloadSpec spec;
  spec.numItems = 3000;
  spec.mu = 16.0;
  return generateWorkload(spec, 5).sortedByArrival();
}

ShardedOptions tightPipeline() {
  ShardedOptions options;
  options.threads = 3;
  options.epochArrivals = 64;
  options.maxEpochsInFlight = 1;
  return options;
}

// Runs `body` on its own thread; a body still running after 30 s is a
// deadlock, reported and then aborted (a hung thread cannot be joined).
template <typename Body>
void withWatchdog(Body body) {
  std::future<void> done = std::async(std::launch::async, std::move(body));
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "sharded engine deadlocked";
    std::abort();
  }
  done.get();
}

enum class Surfaced { kNowhere, kFeed, kFinish };

// Feeds the whole workload and finishes, reporting where the injected
// fault came out. Any other exception escapes to the test.
Surfaced feedAndFinish(ShardedSimulator& sim, const std::vector<Item>& items) {
  try {
    for (const Item& item : items) sim.feed(item);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), kFault);
    return Surfaced::kFeed;
  }
  try {
    sim.finish();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), kFault);
    return Surfaced::kFinish;
  }
  return Surfaced::kNowhere;
}

TEST(ShardedFault, PolicyErrorSurfacesFromFeedOrFinish) {
  const std::vector<Item> items = workload();
  PolicyContext context = PolicyContext::forInstance(Instance(items));
  for (const std::string& spec : faultSpecs()) {
    SCOPED_TRACE(spec);
    withWatchdog([&] {
      ThrowOnItem policy(makePolicy(spec, context), kPoison);
      ShardedSimulator sim(policy, tightPipeline());
      EXPECT_NE(feedAndFinish(sim, items), Surfaced::kNowhere);
    });
  }
}

TEST(ShardedFault, LaterFinishThrowsInsteadOfHanging) {
  const std::vector<Item> items = workload();
  PolicyContext context = PolicyContext::forInstance(Instance(items));
  for (const std::string& spec : faultSpecs()) {
    SCOPED_TRACE(spec);
    withWatchdog([&] {
      ThrowOnItem policy(makePolicy(spec, context), kPoison);
      ShardedSimulator sim(policy, tightPipeline());
      Surfaced where = feedAndFinish(sim, items);
      ASSERT_NE(where, Surfaced::kNowhere);
      if (where == Surfaced::kFeed) {
        // The run is not finished yet: finish() reports the same fault.
        try {
          sim.finish();
          ADD_FAILURE() << "finish() after a failed feed() returned";
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), kFault);
        }
      } else {
        EXPECT_THROW(sim.finish(), std::logic_error);
      }
    });
  }
}

TEST(ShardedFault, DestroyWithEpochsInFlightReturns) {
  const std::vector<Item> items = workload();
  PolicyContext context = PolicyContext::forInstance(Instance(items));
  for (const std::string& spec : faultSpecs()) {
    SCOPED_TRACE(spec);
    withWatchdog([&] {
      // Healthy run abandoned mid-stream: no finish().
      PolicyPtr policy = makePolicy(spec, context);
      ShardedSimulator sim(*policy, tightPipeline());
      for (const Item& item : items) sim.feed(item);
    });
    withWatchdog([&] {
      // Failed run abandoned after the fault surfaced from feed().
      ThrowOnItem policy(makePolicy(spec, context), kPoison);
      ShardedSimulator sim(policy, tightPipeline());
      try {
        for (const Item& item : items) sim.feed(item);
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), kFault);
      }
    });
  }
}

}  // namespace
}  // namespace cdbp
