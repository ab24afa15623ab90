// Figure 11 (extension): dynamic quarantine vs the static baselines on
// the 1000-node power-law graph, in a sparse address space where 90% of
// scans miss. The claim under test: online per-host detection with
// short timed quarantines contains the worm at least as well as
// permanently rate limiting 100% of hosts, while charging well-behaved
// hosts only a bounded (and reported) quarantine-time penalty.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  const campaign::CampaignReport report =
      bench::run_scenario("fig11", argc, argv);
  const core::FigureData& fig = bench::figure_of(report, "fig11");
  bench::print_figure(fig, argc, argv);
  const quarantine::QuarantineReport& cost =
      bench::outcome_of(report, "fig11/dynamic-quarantine")
          .sim_result->quarantine_mean;

  const double f_none = fig.find("no-defense").back_value();
  const double f_rl = fig.find("100%-host-RL").back_value();
  const double f_blacklist = fig.find("blacklist").back_value();
  const double f_quarantine = fig.find("dynamic-quarantine").back_value();

  std::cout << std::setprecision(4);
  std::cout << "final fraction ever infected:\n";
  std::cout << "  no-defense         : " << f_none << '\n';
  std::cout << "  100%-host-RL       : " << f_rl << '\n';
  std::cout << "  blacklist          : " << f_blacklist << '\n';
  std::cout << "  dynamic-quarantine : " << f_quarantine << '\n';
  std::cout << "quarantine detection rate    : " << cost.detection_rate
            << " (latency " << cost.mean_detection_latency << " ticks)\n";
  std::cout << "false-positive rate          : " << cost.false_positive_rate
            << " (" << cost.false_positive_hosts << " of "
            << cost.benign_hosts << " benign hosts)\n";
  std::cout << "benign quarantine ticks      : "
            << cost.benign_quarantine_time << " total, "
            << cost.mean_benign_quarantine_time << " per FP host\n";

  // Acceptance: containment no worse than the strongest static
  // deployment (within a small stochastic slack), and the worm clearly
  // beaten relative to no defense.
  const double slack = 0.002;  // 2 hosts of 1000
  if (f_quarantine > f_rl + slack) {
    std::cout << "FAIL: quarantine contained worse than 100% host RL\n";
    return 1;
  }
  if (f_quarantine > 0.5 * f_none) {
    std::cout << "FAIL: quarantine did not substantially beat no-defense\n";
    return 1;
  }
  std::cout << "PASS: dynamic quarantine contains at least as well as "
               "100% host rate limiting\n";
  return 0;
}
