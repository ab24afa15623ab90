// Figure 10: the practical rate limits from the trace study fed back
// into the hub-approximation models (log time axis). DNS-based edge
// limiting (γ:β = 1:2) beats plain IP throttling (1:6); both beat
// per-host limits.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  const campaign::CampaignReport report =
      bench::run_scenario("fig10", argc, argv);
  const core::FigureData& fig = bench::figure_of(report, "fig10");
  bench::print_figure(fig, argc, argv);

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "time to 90% infection (5s windows):\n";
  for (const core::NamedSeries& s : fig.series)
    std::cout << "  " << s.label << " : " << s.series.time_to_reach(0.9)
              << '\n';
  std::cout << "expected ordering: no-RL << host-RL << edge-RL-1:6-ip "
               "<< edge-RL-1:2-dns\n";
  return 0;
}
