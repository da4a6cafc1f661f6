// Fixture: an engine committing placements by hand instead of driving the
// placement core — placement-commit must fire on each mutation.

namespace cdbp_fixture {

struct Manager {
  int openBin(int, double) { return 0; }
  void addItem(int, double) {}
  bool removeItem(int, double) { return false; }
};

void secondCommitCopy(Manager& bins, Manager* other, double size) {
  int bin = bins.openBin(0, 0.0);
  bins.addItem(bin, size);
  other->removeItem(bin, size);
}

}  // namespace cdbp_fixture
