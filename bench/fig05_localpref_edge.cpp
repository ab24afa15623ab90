// Figure 5: simulated edge-router rate limiting against random vs
// local-preferential worms. The paper: edge RL yields ~50% slowdown on
// the random worm but "very little perceivable benefit" against the
// local-preferential worm.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  const campaign::CampaignReport report =
      bench::run_scenario("fig05", argc, argv);
  const core::FigureData& fig = bench::figure_of(report, "fig5");
  bench::print_figure(fig, argc, argv);

  std::cout << std::fixed << std::setprecision(2);
  const double t_r0 = fig.find("no-RL-random").time_to_reach(0.5);
  const double t_r1 = fig.find("edge-RL-random").time_to_reach(0.5);
  const double t_l0 = fig.find("no-RL-localpref").time_to_reach(0.5);
  const double t_l1 = fig.find("edge-RL-localpref").time_to_reach(0.5);
  std::cout << "time to 50% infection:\n";
  std::cout << "  random    : " << t_r0 << " -> " << t_r1 << "  (slowdown "
            << (t_r0 > 0 && t_r1 > 0 ? t_r1 / t_r0 : -1.0) << "x)\n";
  std::cout << "  localpref : " << t_l0 << " -> " << t_l1 << "  (slowdown "
            << (t_l0 > 0 && t_l1 > 0 ? t_l1 / t_l0 : -1.0) << "x)\n";
  std::cout << "paper: ~1.5x for random, ~1x for local-preferential\n";
  return 0;
}
