// Reconstructions of the paper's illustrative Figures 1-7 using real
// library objects (Figure 8, the evaluation figure, lives in bench_fig8).
// Each section prints the construct the figure explains, computed — not
// drawn by hand — from the corresponding module.
#include <iomanip>
#include <iostream>

#include "analysis/ratios.hpp"
#include "core/brute_force.hpp"
#include "core/instance.hpp"
#include "offline/chart_render.hpp"
#include "offline/ddff.hpp"
#include "offline/demand_chart.hpp"
#include "offline/dual_coloring.hpp"
#include "offline/xperiods.hpp"
#include "online/policy_factory.hpp"
#include "sim/streaming.hpp"
#include "telemetry/bench_report.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/adversarial.hpp"
#include "workload/generators.hpp"

namespace {

void timelineBar(const char* label, cdbp::Interval I, double scale,
                 double origin) {
  int lead = static_cast<int>((I.lo - origin) * scale);
  int len = std::max(1, static_cast<int>(I.length() * scale));
  std::cout << "  " << std::setw(8) << label << " |" << std::string(lead, ' ')
            << std::string(len, '=') << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdbp;
  Flags flags = Flags::strictOrDie(argc, argv, {"json"});
  std::cout << "===== Reconstructing the paper's Figures 1-7 =====\n";

  // ---- Figure 1: span of an item list ----
  std::cout << "\n-- Figure 1: span of an item list --\n";
  Instance fig1 = InstanceBuilder()
                      .add(0.4, 0, 5)
                      .add(0.4, 3, 9)
                      .add(0.4, 12, 16)
                      .build();
  for (const Item& r : fig1.items()) {
    timelineBar(("item " + std::to_string(r.id)).c_str(), r.interval, 4.0, 0);
  }
  std::cout << "  span(R) = " << fig1.span()
            << " (busy pieces [0,9) and [12,16); the idle gap does not "
               "count)\n";

  // ---- Figure 2: X-periods of a bin ----
  std::cout << "\n-- Figure 2: splitting a bin's item intervals into "
               "X-periods --\n";
  std::vector<Item> fig2 = {Item(0, 0.3, 0, 6), Item(1, 0.3, 2, 4),
                            Item(2, 0.3, 3, 9), Item(3, 0.3, 7, 12)};
  for (const Item& r : fig2) {
    timelineBar(("item " + std::to_string(r.id)).c_str(), r.interval, 4.0, 0);
  }
  std::cout << "  item 1 is contained in item 0 -> removed in R'\n";
  for (const XPeriod& x : xPeriods(fig2)) {
    std::cout << "  X(item " << x.item << ") = [" << x.period.lo << ", "
              << x.period.hi << ")\n";
  }
  std::cout << "  total X length = span of the bin, each X inside its "
               "owner's interval\n";

  // ---- Figures 3 & 4: demand chart + stripes ----
  std::cout << "\n-- Figure 3: Phase 1 item placement in the demand chart "
               "--\n";
  WorkloadSpec chartSpec;
  chartSpec.numItems = 14;
  chartSpec.sizes = SizeDist::kSmallOnly;
  chartSpec.minSize = 0.1;
  chartSpec.arrivalRate = 3.0;
  chartSpec.mu = 4.0;
  Instance chartInst = generateWorkload(chartSpec, 4);
  DemandChart chart(chartInst.items());
  renderDemandChart(chart, std::cout, {.width = 66, .height = 12});

  std::cout << "\n-- Figure 4: Phase 2 stripe packing --\n";
  DualColoringResult dc = dualColoring(chartInst);
  std::cout << "  max chart height " << chart.maxHeight() << " -> m = "
            << dc.numStripes << " stripes of height 1/2; bins used: "
            << dc.packing.numBins() << " (<= 2m-1 = "
            << 2 * dc.numStripes - 1 << ")\n";
  for (std::size_t i = 0; i < chart.placements().size(); ++i) {
    const ChartPlacement& p = chart.placements()[i];
    std::cout << "  item " << p.item << " at altitude " << std::setprecision(3)
              << p.altitude << " -> bin " << dc.packing.binOf(p.item) << "\n";
    if (i == 5) {
      std::cout << "  ... (" << chart.placements().size() << " items total)\n";
      break;
    }
  }

  // ---- Figure 5: the two adversary cases ----
  std::cout << "\n-- Figure 5: Theorem 3 adversary cases (x = phi) --\n";
  double phi = ratios::adversaryOptimalX();
  Instance caseA = theorem3CaseA(phi, 0.01);
  Instance caseB = theorem3CaseB(phi, 0.01, 0.05);
  double caseAOpt = bruteForceOptimal(caseA)->usage;
  double caseBOpt = bruteForceOptimal(caseB)->usage;
  std::cout << "  case A: two items of size 1/2-eps at t=0, durations x and 1\n";
  std::cout << "    optimum (co-locate): " << caseAOpt << "\n";
  std::cout << "  case B: plus two items of size 1/2+eps at tau\n";
  std::cout << "    optimum (pair 1&3, 2&4): " << caseBOpt
            << "\n    co-locating algorithms pay 2x+1 = " << 2 * phi + 1
            << "\n";

  // ---- Figures 6 & 7: the three stages of a CDT category ----
  std::cout << "\n-- Figures 6-7: three-stage decomposition of a "
               "classify-by-departure-time category --\n";
  WorkloadSpec cdtSpec;
  cdtSpec.numItems = 60;
  cdtSpec.mu = 6.0;
  // The parameter-free cdt-ff spec self-tunes to rho = sqrt(mu)*Delta of
  // the generated instance; the stage decomposition reads each item's
  // arrival and the Placement the StreamEngine returns for it.
  Instance cdtInstance = generateWorkload(cdtSpec, 8);
  PolicyPtr cdtPolicy =
      makePolicy("cdt-ff", PolicyContext::forInstance(cdtInstance, 8));
  double delta = cdtInstance.minDuration();
  double mu = cdtInstance.durationRatio();
  double rho = std::sqrt(mu) * delta;

  // Pick the busiest category and derive t1, t2, t3 from the definitions.
  struct Arrival {
    Time time;
    bool openedNewBin;
  };
  std::map<int, std::vector<Arrival>> byCategory;
  StreamEngine cdtEngine(*cdtPolicy);
  for (const Item& r : cdtInstance.sortedByArrival()) {
    Placement placed = cdtEngine.place(r);
    byCategory[placed.category].push_back({r.arrival(), placed.openedNewBin});
  }
  const auto* busiest = &*byCategory.begin();
  for (const auto& entry : byCategory) {
    if (entry.second.size() > busiest->second.size()) busiest = &entry;
  }
  double windowEnd = (busiest->first + 1) * rho;
  double t = windowEnd - rho;  // departures fall in (t, t+rho]
  double t1 = t - mu * delta;
  double t3 = t - delta;
  double t2 = t3;  // if no second bin opens before t3
  std::size_t binsSeen = 0;
  for (const Arrival& a : busiest->second) {
    if (a.openedNewBin && ++binsSeen == 2) {
      t2 = std::min(std::max(a.time, t1), t3);
      break;
    }
  }
  std::cout << "  category " << busiest->first << " ("
            << busiest->second.size() << " items departing in (" << t << ", "
            << windowEnd << "]):\n";
  std::cout << "    t1 = t - mu*Delta = " << t1
            << "   (earliest possible arrival)\n";
  std::cout << "    t2 = second bin opens = " << t2 << "\n";
  std::cout << "    t3 = t - Delta = " << t3 << "\n";
  std::cout << "  stage 1 [t1,t2): one open bin; stage 2 [t2,t3): avg level "
               "> 1/2 (Lemma 6); stage 3 [t3,t+rho): left/right usage split "
               "(Figure 7)\n";

  Table constants({"figure", "quantity", "value"});
  constants.addRow({"1", "span(R)", Table::num(fig1.span(), 4)});
  constants.addRow(
      {"4", "stripes m", std::to_string(dc.numStripes)});
  constants.addRow(
      {"4", "bins used", std::to_string(dc.packing.numBins())});
  constants.addRow({"5", "phi", Table::num(phi, 6)});
  constants.addRow({"5", "case A optimum", Table::num(caseAOpt, 4)});
  constants.addRow({"5", "case B optimum", Table::num(caseBOpt, 4)});
  constants.addRow({"6", "t1", Table::num(t1, 4)});
  constants.addRow({"6", "t2", Table::num(t2, 4)});
  constants.addRow({"6", "t3", Table::num(t3, 4)});
  telemetry::BenchReport report("paper_figures");
  report.addTable("figure_constants", constants);
  report.writeIfRequested(flags, std::cout);
  return 0;
}
