// Figure 6: simulated local-preferential worm under host-based (5%,
// 30%) vs backbone rate limiting. Host filters at 30% are still
// indistinguishable from no RL; backbone filters are substantially
// more effective.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  const campaign::CampaignReport report =
      bench::run_scenario("fig06", argc, argv);
  const core::FigureData& fig = bench::figure_of(report, "fig6");
  bench::print_figure(fig, argc, argv);

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "time to 50% infection:\n";
  for (const core::NamedSeries& s : fig.series) {
    const double t = s.series.time_to_reach(0.5);
    std::cout << "  " << s.label << " : "
              << (t >= 0 ? t : -1.0)
              << (t < 0 ? "  (not reached in horizon)" : "") << '\n';
  }
  return 0;
}
