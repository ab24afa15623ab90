// Shared helpers for the figure-reproduction bench binaries.
//
// Every fig* binary prints its figure as an aligned text table by
// default; pass --csv for machine-readable output and --quick for a
// reduced-fidelity run (fewer simulation repetitions, shorter synthetic
// traces). Every figure bench but the trace-driven fig09, and the two
// campaign ablation sweeps, run their catalogue scenario through the
// campaign engine, so they also honor --no-cache (force re-execution)
// and --cache-dir DIR.
#pragma once

#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "campaign/scenarios.hpp"
#include "core/experiments.hpp"
#include "core/figure.hpp"

namespace dq::bench {

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

inline const char* flag_value(int argc, char** argv, const char* flag,
                              const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return fallback;
}

inline core::ExperimentOptions options_from_args(int argc, char** argv) {
  return has_flag(argc, argv, "--quick")
             ? core::ExperimentOptions::quick()
             : core::ExperimentOptions{};
}

inline void print_figure(const core::FigureData& figure, int argc,
                         char** argv) {
  if (has_flag(argc, argv, "--csv"))
    std::cout << core::render_csv(figure);
  else
    std::cout << core::render_table(figure) << '\n';
}

/// Runs one built-in scenario through the campaign engine (the shared
/// pool + artifact cache replacing the per-bench run_many loops) and
/// returns its report. Throws if any job failed.
inline campaign::CampaignReport run_scenario(const std::string& name,
                                             int argc, char** argv) {
  const core::ExperimentOptions options = options_from_args(argc, argv);
  const std::vector<campaign::ScenarioDef> catalogue =
      campaign::builtin_scenarios(options);
  const campaign::ScenarioDef* scenario =
      campaign::find_scenario(catalogue, name);
  if (!scenario)
    throw std::logic_error("unknown builtin scenario: " + name);

  campaign::RunOptions run_options;
  run_options.use_cache = !has_flag(argc, argv, "--no-cache");
  run_options.cache_dir = flag_value(argc, argv, "--cache-dir", ".dq-cache");
  campaign::CampaignReport report =
      campaign::run_scenarios({*scenario}, run_options);
  for (const campaign::JobOutcome& outcome : report.outcomes)
    if (!outcome.ok())
      throw std::runtime_error(outcome.name + ": " + outcome.error);
  return report;
}

inline const core::FigureData& figure_of(
    const campaign::CampaignReport& report, const std::string& id) {
  for (const core::FigureData& fig : report.figures)
    if (fig.id == id) return fig;
  throw std::logic_error("campaign report has no figure " + id);
}

inline const campaign::JobOutcome& outcome_of(
    const campaign::CampaignReport& report, const std::string& name) {
  for (const campaign::JobOutcome& outcome : report.outcomes)
    if (outcome.name == name) return outcome;
  throw std::logic_error("campaign report has no job " + name);
}

}  // namespace dq::bench
