// The forced-start rule of the flexible online simulator: a job whose
// latest start has come starts then even when the policy defers it, and
// it gets a fresh bin of its own.
#include <gtest/gtest.h>

#include <set>

#include "flexible/flexible_workload.hpp"
#include "flexible/online_flexible.hpp"

namespace cdbp {
namespace {

class AlwaysDefer : public FlexOnlinePolicy {
 public:
  std::string name() const override { return "AlwaysDefer"; }
  FlexDecision consider(const PlacementView&, const FlexibleJob&,
                        Time) override {
    return FlexDecision::defer();
  }
};

TEST(FlexOnlineForcedStart, DeferredJobsStartAtLatestStartInFreshBins) {
  FlexibleWorkloadSpec spec;
  spec.numJobs = 80;
  FlexibleInstance inst = generateFlexibleWorkload(spec, 7);
  for (PlacementEngine engine :
       {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
    AlwaysDefer policy;
    FlexOnlineResult r = simulateFlexibleOnline(inst, policy, {engine});
    EXPECT_FALSE(r.validate(inst).has_value());
    EXPECT_EQ(r.forcedStarts, inst.size());
    EXPECT_EQ(r.binsOpened, inst.size());
    std::set<BinId> bins;
    for (const FlexibleJob& job : inst.jobs()) {
      EXPECT_EQ(r.starts[job.id], job.latestStart()) << "job " << job.id;
      bins.insert(r.packing.binOf(job.id));
    }
    EXPECT_EQ(bins.size(), inst.size());
  }
}

}  // namespace
}  // namespace cdbp
