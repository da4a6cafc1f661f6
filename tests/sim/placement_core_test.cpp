// The placement core's decision validation, seen through every entry point
// that drives it: a policy that names a bin id that was never opened
// (past the last bin, or a negative id other than kNewBin) is a policy
// bug, reported as std::logic_error naming the policy, the item and the
// id — never an out-of-bounds read of the bin table.
#include "sim/placement_core.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "flexible/online_flexible.hpp"
#include "multidim/md_policies.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"

namespace cdbp {
namespace {

// Ids no policy may return: one past the only bin, a far one, the
// "unassigned" marker and an arbitrary negative id.
const BinId kRogueIds[] = {1, 1000, kUnassigned, -7};

// Opens a bin for item 0, then sends every later item to `rogue`.
class RoguePolicy : public OnlinePolicy {
 public:
  explicit RoguePolicy(BinId rogue) : rogue_(rogue) {}
  std::string name() const override { return "Rogue"; }
  bool clairvoyant() const override { return false; }
  PlacementDecision place(const PlacementView&, const Item& item) override {
    if (item.id == 0) return PlacementDecision::fresh(0);
    return PlacementDecision::existing(rogue_);
  }
  std::optional<long long> shardKey(const Item&) const override { return 0; }
  std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<RoguePolicy>(rogue_);
  }

 private:
  BinId rogue_;
};

void expectRejected(const std::function<void()>& run, BinId rogue) {
  try {
    run();
    ADD_FAILURE() << "bin " << rogue << " was accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Rogue"), std::string::npos) << what;
    EXPECT_NE(what.find("item 1"), std::string::npos) << what;
    EXPECT_NE(what.find("bin " + std::to_string(rogue)), std::string::npos)
        << what;
  }
}

Instance twoItems() {
  return InstanceBuilder().add(0.2, 0, 4).add(0.2, 1, 5).build();
}

TEST(PlacementCore, SimulateOnlineRejectsOutOfRangeBin) {
  for (BinId rogue : kRogueIds) {
    for (PlacementEngine engine :
         {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
      RoguePolicy policy(rogue);
      SimOptions options;
      options.engine = engine;
      expectRejected([&] { simulateOnline(twoItems(), policy, options); },
                     rogue);
    }
  }
}

TEST(PlacementCore, StreamEngineRejectsOutOfRangeBin) {
  for (BinId rogue : kRogueIds) {
    RoguePolicy policy(rogue);
    StreamEngine engine(policy);
    engine.place(Item(0, 0.2, 0, 4));
    expectRejected([&] { engine.place(Item(1, 0.2, 1, 5)); }, rogue);
  }
}

TEST(PlacementCore, ShardedEngineSurfacesOutOfRangeBinFromFinish) {
  for (BinId rogue : kRogueIds) {
    RoguePolicy policy(rogue);
    ShardedOptions options;
    options.threads = 2;
    ShardedSimulator sim(policy, options);
    sim.feed(Item(0, 0.2, 0, 4));
    sim.feed(Item(1, 0.2, 1, 5));
    expectRejected([&] { sim.finish(); }, rogue);
  }
}

class RogueMdPolicy : public MdOnlinePolicy {
 public:
  explicit RogueMdPolicy(BinId rogue) : rogue_(rogue) {}
  std::string name() const override { return "Rogue"; }
  BinId place(const MdPlacementView&, const MdItem& item,
              int* category) override {
    *category = 0;
    return item.id == 0 ? kNewBin : rogue_;
  }

 private:
  BinId rogue_;
};

TEST(PlacementCore, MultidimSimulatorRejectsOutOfRangeBin) {
  MdInstance inst =
      MdInstanceBuilder().add({0.2, 0.2}, 0, 4).add({0.2, 0.2}, 1, 5).build();
  for (BinId rogue : kRogueIds) {
    for (PlacementEngine engine :
         {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
      RogueMdPolicy policy(rogue);
      expectRejected([&] { mdSimulateOnline(inst, policy, {engine}); }, rogue);
    }
  }
}

class RogueFlexPolicy : public FlexOnlinePolicy {
 public:
  explicit RogueFlexPolicy(BinId rogue) : rogue_(rogue) {}
  std::string name() const override { return "Rogue"; }
  FlexDecision consider(const PlacementView&, const FlexibleJob& job,
                        Time) override {
    return job.id == 0 ? FlexDecision::startFresh()
                       : FlexDecision::start(rogue_);
  }

 private:
  BinId rogue_;
};

TEST(PlacementCore, FlexibleSimulatorRejectsOutOfRangeBin) {
  FlexibleInstance inst =
      FlexibleInstanceBuilder().add(0.2, 0, 8, 4).add(0.2, 1, 9, 4).build();
  for (BinId rogue : kRogueIds) {
    for (PlacementEngine engine :
         {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
      RogueFlexPolicy policy(rogue);
      expectRejected([&] { simulateFlexibleOnline(inst, policy, {engine}); },
                     rogue);
    }
  }
}

}  // namespace
}  // namespace cdbp
