#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "online/any_fit.hpp"
#include "sim/streaming.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

// A policy that always opens a new bin: maximally wasteful but trivially
// correct; used to probe the simulator's accounting.
class AlwaysNewBin : public OnlinePolicy {
 public:
  std::string name() const override { return "AlwaysNewBin"; }
  bool clairvoyant() const override { return false; }
  PlacementDecision place(const PlacementView&, const Item&) override {
    return PlacementDecision::fresh(0);
  }
};

// A deliberately broken policy that targets bin 0 forever.
class StuckOnBinZero : public OnlinePolicy {
 public:
  std::string name() const override { return "StuckOnBinZero"; }
  bool clairvoyant() const override { return false; }
  PlacementDecision place(const PlacementView& view, const Item&) override {
    if (view.binsOpened() == 0) return PlacementDecision::fresh(0);
    return PlacementDecision::existing(0);
  }
};

TEST(Simulator, AlwaysNewBinUsageIsSumOfDurations) {
  Instance inst = InstanceBuilder()
                      .add(0.2, 0, 2)
                      .add(0.2, 1, 4)
                      .add(0.2, 3, 6)
                      .build();
  AlwaysNewBin policy;
  SimResult result = simulateOnline(inst, policy);
  EXPECT_EQ(result.binsOpened, 3u);
  EXPECT_DOUBLE_EQ(result.totalUsage, 2.0 + 3.0 + 3.0);
  EXPECT_FALSE(result.packing.validate().has_value());
}

TEST(Simulator, DepartureFreesCapacityForSameInstantArrival) {
  // Item 0 occupies the whole bin on [0,1); item 1 arrives exactly at 1.
  Instance inst = InstanceBuilder().add(1.0, 0, 1).add(1.0, 1, 2).build();
  FirstFitPolicy ff;
  SimResult result = simulateOnline(inst, ff);
  // The bin closed at t=1 (it emptied), so First Fit opens a second bin:
  // closed bins never reopen in the online model.
  EXPECT_EQ(result.binsOpened, 2u);
  EXPECT_DOUBLE_EQ(result.totalUsage, 2.0);
}

TEST(Simulator, OverlappingSameInstantItemsShareWhenFeasible) {
  Instance inst = InstanceBuilder().add(0.5, 0, 2).add(0.5, 0, 2).build();
  FirstFitPolicy ff;
  SimResult result = simulateOnline(inst, ff);
  EXPECT_EQ(result.binsOpened, 1u);
  EXPECT_DOUBLE_EQ(result.totalUsage, 2.0);
}

TEST(Simulator, ThrowsOnInfeasiblePolicyDecision) {
  Instance inst = InstanceBuilder().add(0.9, 0, 2).add(0.9, 1, 3).build();
  StuckOnBinZero policy;
  EXPECT_THROW(simulateOnline(inst, policy), std::logic_error);
}

TEST(Simulator, ThrowsWhenPolicyTargetsClosedBin) {
  Instance inst = InstanceBuilder().add(0.9, 0, 1).add(0.9, 5, 6).build();
  StuckOnBinZero policy;  // bin 0 closes at t=1, item 1 arrives at 5
  EXPECT_THROW(simulateOnline(inst, policy), std::logic_error);
}

TEST(Simulator, MaxOpenBinsTracksPeak) {
  Instance inst = InstanceBuilder()
                      .add(0.9, 0, 10)
                      .add(0.9, 1, 3)
                      .add(0.9, 2, 4)
                      .build();
  FirstFitPolicy ff;
  SimResult result = simulateOnline(inst, ff);
  EXPECT_EQ(result.maxOpenBins, 3u);
  EXPECT_EQ(result.packing.maxConcurrentBins(), 3u);
}

TEST(Simulator, AnnounceHookPerturbsOnlyWhatPoliciesSee) {
  Instance inst = InstanceBuilder().add(0.4, 0, 10).add(0.4, 0, 10).build();
  // Record what the policy received.
  struct Recorder : OnlinePolicy {
    std::vector<Time> seenDepartures;
    std::string name() const override { return "Recorder"; }
    bool clairvoyant() const override { return true; }
    PlacementDecision place(const PlacementView& view, const Item& item) override {
      seenDepartures.push_back(item.departure());
      for (BinId id : view.openBins()) {
        if (view.fits(id, item.size)) return PlacementDecision::existing(id);
      }
      return PlacementDecision::fresh(0);
    }
  } recorder;

  SimOptions options;
  options.announce = [](const Item& r) {
    return Item(r.id, r.size, r.arrival(), r.departure() * 2);
  };
  SimResult result = simulateOnline(inst, recorder, options);
  ASSERT_EQ(recorder.seenDepartures.size(), 2u);
  EXPECT_DOUBLE_EQ(recorder.seenDepartures[0], 20.0);
  // The system still evolves with the true departures.
  EXPECT_DOUBLE_EQ(result.totalUsage, 10.0);
}

TEST(Simulator, AnnounceMayNotChangeSizeOrArrival) {
  Instance inst = InstanceBuilder().add(0.4, 0, 10).build();
  FirstFitPolicy ff;
  SimOptions options;
  options.announce = [](const Item& r) {
    return Item(r.id, r.size * 0.5, r.arrival(), r.departure());
  };
  EXPECT_THROW(simulateOnline(inst, ff, options), std::logic_error);
}

TEST(Simulator, CategoriesUsedCountsDistinctTags) {
  Instance inst = InstanceBuilder()
                      .add(0.4, 0, 1)
                      .add(0.4, 0, 1)
                      .add(0.4, 0, 1)
                      .build();
  struct TagPerItem : OnlinePolicy {
    int next = 0;
    std::string name() const override { return "TagPerItem"; }
    bool clairvoyant() const override { return false; }
    PlacementDecision place(const PlacementView&, const Item&) override {
      return PlacementDecision::fresh(next++);
    }
    void reset() override { next = 0; }
  } tagger;
  SimResult result = simulateOnline(inst, tagger);
  EXPECT_EQ(result.categoriesUsed, 3u);
}

// Ids out of arrival order, pinned per engine. Items 1 and 2 share bin 0
// and both depart at t = 6; item 2 arrives first, so an engine that
// renumbered items in arrival order would drain item 2 first and leave a
// different floating-point residue in bin 0 (0.29999999999999993 instead
// of 0.3) for item 4, which arrives at t = 6, to read. The announce hook
// shifts departures by one, and that shift moves items 0 and 5 into
// category 1. The per-decision table is read from the Placements a
// StreamEngine returns when fed the same items and the same hook.
class SimulatorNonCanonicalIds
    : public ::testing::TestWithParam<PlacementEngine> {};

TEST_P(SimulatorNonCanonicalIds, KeepsInstanceIdsEndToEnd) {
  Instance inst = InstanceBuilder()
                      .add(0.5, 3, 25)     // 0
                      .add(0.1, 2, 6)      // 1
                      .add(0.2, 1, 6)      // 2
                      .add(0.3, 0, 9)      // 3
                      .add(0.25, 6, 10)    // 4
                      .add(0.7, 0.5, 30)   // 5
                      .add(0.4, 7, 8)      // 6
                      .add(0.6, 7.5, 9)    // 7
                      .build();
  struct FirstFitByAnnouncedDeparture : OnlinePolicy {
    std::string name() const override { return "FirstFitByDeparture"; }
    bool clairvoyant() const override { return true; }
    PlacementDecision place(const PlacementView& view,
                            const Item& item) override {
      int category = item.departure() >= 20 ? 1 : 0;
      BinId bin = view.firstFitIn(category, item.size);
      return bin == kNewBin ? PlacementDecision::fresh(category)
                            : PlacementDecision::existing(bin);
    }
  } policy;

  std::vector<ItemId> announced;
  auto announce = [&announced](const Item& r) {
    announced.push_back(r.id);
    return Item(r.id, r.size, r.arrival(), r.departure() + 1);
  };
  SimOptions options;
  options.engine = GetParam();
  options.announce = announce;
  SimResult result = simulateOnline(inst, policy, options);

  EXPECT_EQ(announced, (std::vector<ItemId>{3, 5, 2, 1, 0, 4, 6, 7}));
  EXPECT_EQ(result.packing.binOf(),
            (std::vector<BinId>{2, 0, 0, 0, 0, 1, 0, 3}));
  EXPECT_EQ(result.totalUsage, 63.0);
  EXPECT_EQ(result.binsOpened, 4u);
  EXPECT_EQ(result.maxOpenBins, 4u);
  EXPECT_EQ(result.categoriesUsed, 2u);

  struct Expected {
    ItemId item;
    BinId bin;
    bool opened;
    int category;
    std::size_t openBins;
    double levelBefore;
  };
  const std::vector<Expected> expected = {
      {3, 0, true, 0, 0, 0.0},  {5, 1, true, 1, 1, 0.0},
      {2, 0, false, 0, 2, 0.3}, {1, 0, false, 0, 2, 0.5},
      {0, 2, true, 1, 2, 0.0},  {4, 0, false, 0, 3, 0.3},
      {6, 0, false, 0, 3, 0.55}, {7, 3, true, 0, 3, 0.0},
  };
  announced.clear();
  StreamOptions streamOptions;
  streamOptions.engine = GetParam();
  streamOptions.announce = announce;
  StreamEngine engine(policy, streamOptions);
  std::vector<Placement> placements;
  for (const Item& r : inst.sortedByArrival()) {
    placements.push_back(engine.place(r));
  }
  EXPECT_EQ(announced, (std::vector<ItemId>{3, 5, 2, 1, 0, 4, 6, 7}));
  ASSERT_EQ(placements.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Placement& placed = placements[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(placed.item, expected[i].item);
    EXPECT_EQ(placed.bin, expected[i].bin);
    EXPECT_EQ(placed.openedNewBin, expected[i].opened);
    EXPECT_EQ(placed.category, expected[i].category);
    EXPECT_EQ(placed.openBinsBefore, expected[i].openBins);
    EXPECT_EQ(placed.binLevelBefore, expected[i].levelBefore);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SimulatorNonCanonicalIds,
    ::testing::Values(PlacementEngine::kIndexed, PlacementEngine::kLinearScan),
    [](const ::testing::TestParamInfo<PlacementEngine>& info) {
      return info.param == PlacementEngine::kIndexed ? "Indexed"
                                                     : "LinearScan";
    });

class SimulatorFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFeasibility, FirstFitPackingsAlwaysValidate) {
  WorkloadSpec spec;
  spec.numItems = 300;
  spec.mu = 12.0;
  Instance inst = generateWorkload(spec, GetParam());
  FirstFitPolicy ff;
  SimResult result = simulateOnline(inst, ff);
  EXPECT_FALSE(result.packing.validate().has_value());
  EXPECT_DOUBLE_EQ(result.totalUsage, result.packing.totalUsage());
  EXPECT_EQ(result.binsOpened, result.packing.numBins());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFeasibility,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace cdbp
