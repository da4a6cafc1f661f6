// Fixture: a simulator loop validating and committing a policy's decision
// by hand instead of handing it to the placement core — placement-commit
// must fire on the probe and on each mutation.

namespace cdbp_fixture {

struct Manager {
  int openBin(int, double) { return 0; }
  bool wouldFit(int, double) const { return true; }
  void addItem(int, double) {}
  bool removeItem(int, double) { return false; }
};

bool ownCommitLoop(Manager& bins, int target, double demand) {
  if (target < 0) {
    target = bins.openBin(0, 0.0);
  } else if (!bins.wouldFit(target, demand)) {
    return false;
  }
  bins.addItem(target, demand);
  return bins.removeItem(target, demand);
}

}  // namespace cdbp_fixture
