// Fixture: the placement core is the one sanctioned home of the commit
// code; placement-commit must stay quiet here.

namespace cdbp_fixture {

struct Manager {
  int openBin(int, double) { return 0; }
  void addItem(int, double) {}
  bool removeItem(int, double) { return false; }
};

int commit(Manager& bins, double size) {
  int bin = bins.openBin(0, 0.0);
  bins.addItem(bin, size);
  bins.removeItem(bin, size);
  return bin;
}

}  // namespace cdbp_fixture
