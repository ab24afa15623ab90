// Figure 7: analytical delayed immunization, (a) alone and (b) combined
// with backbone rate limiting.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  const campaign::CampaignReport report =
      bench::run_scenario("fig07", argc, argv);
  const core::FigureData& fig7a = bench::figure_of(report, "fig7a");
  bench::print_figure(fig7a, argc, argv);
  const core::FigureData& fig7b = bench::figure_of(report, "fig7b");
  bench::print_figure(fig7b, argc, argv);

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "peak active infection (fraction):\n";
  for (const core::NamedSeries& s : fig7a.series)
    std::cout << "  7a " << s.label << " : " << s.series.max_value() << '\n';
  for (const core::NamedSeries& s : fig7b.series)
    std::cout << "  7b " << s.label << " : " << s.series.max_value() << '\n';
  return 0;
}
