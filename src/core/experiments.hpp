// The experiment registry for the closed-form and trace figures of the
// paper, plus the knobs every experiment shares. The simulated figures
// are defined once, as scenarios of the campaign catalogue
// (campaign::builtin_scenarios); the closed-form ones are reached from
// there through analytical_figure.
//
// Paper-to-code index (see DESIGN.md §4 for the full table):
//   Fig. 1(a)/(b) — star-graph rate limiting, analytical + simulated
//   Fig. 2        — host-based deployment sweep, analytical
//   Fig. 3(a)/(b) — edge-router limiting across/within subnets
//   Fig. 4        — power-law simulation: host vs edge vs backbone
//   Fig. 5        — edge limiting vs local-preferential worms (sim)
//   Fig. 6        — local-preferential: host vs backbone (sim)
//   Fig. 7(a)/(b) — delayed immunization, analytical
//   Fig. 8(a)/(b) — delayed immunization, simulated (ever-infected)
//   Fig. 9(a)/(b) — trace contact-rate CDFs
//   Fig. 10       — practical rate limits fed back into the models
//   Fig. 11       — dynamic quarantine vs static defenses (extension)
// Simulated panels (1b, 4, 5, 6, 8a, 8b, 11) are scenarios fig01,
// fig04, fig05, fig06, fig08 and fig11 in campaign/scenarios.cpp.
#pragma once

#include <cstdint>
#include <string>

#include "core/figure.hpp"
#include "trace/department.hpp"

namespace dq::core {

/// Knobs shared by the experiments: the campaign catalogue's run count
/// and seed, and the synthetic trace's length. `quick()` shrinks runs
/// and trace duration for use inside unit tests.
struct ExperimentOptions {
  std::size_t sim_runs = 10;        ///< the paper averages 10 runs
  std::uint64_t seed = 42;
  double trace_duration = 4.0 * 3600.0;  ///< synthetic-trace length (s)

  static ExperimentOptions quick() {
    ExperimentOptions o;
    o.sim_runs = 3;
    o.trace_duration = 600.0;
    return o;
  }
};

/// Closed-form figures by registry id — "fig1a", "fig2", "fig3a",
/// "fig3b", "fig7a", "fig7b", "fig10". The campaign engine's entry
/// point for analytical jobs. Throws std::invalid_argument on an
/// unknown id.
FigureData analytical_figure(const std::string& id);

// --- Section 4: star topology ---
FigureData fig1a_star_analytical();

// --- Section 5.1: host-based deployment ---
FigureData fig2_host_analytical();

// --- Section 5.2: edge routers, random vs local-preferential ---
FigureData fig3a_edge_across_subnets();
FigureData fig3b_edge_within_subnet();

// --- Section 6: dynamic immunization ---
FigureData fig7a_immunization_analytical();
FigureData fig7b_immunization_ratelimited_analytical();

// --- Section 7: trace study ---
/// Builds the synthetic department trace used by the fig9/table
/// experiments (cached by callers as needed — generation is the
/// expensive step).
trace::Trace make_department_trace(const ExperimentOptions& options);

FigureData fig9a_normal_client_cdf(const trace::Trace& trace);
FigureData fig9b_worm_host_cdf(const trace::Trace& trace);
FigureData fig10_trace_rates_analytical();

/// The quantitative Section 7 findings (category census, 99.9% rate
/// limits under each refinement, window-size study, worm peak scan
/// rates, throttle replays) as a text report.
std::string trace_study_report(const trace::Trace& trace);

}  // namespace dq::core
