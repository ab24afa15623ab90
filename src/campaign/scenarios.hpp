// Named experiment scenarios and their expansion into a campaign.
//
// A ScenarioDef declares a bundle of jobs plus the figures assembled
// from their outcomes. The built-in catalogue is the one definition of
// every simulated figure of the paper: `dqctl figure`, the figure
// benches and the experiment tests all run it. Scenarios are expanded
// together into ONE Campaign: jobs identical across scenarios (same
// content hash) are deduplicated and executed once.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/experiments.hpp"

namespace dq::campaign {

/// One named job inside a scenario. `name` is scenario-local; the
/// global campaign job is named "<scenario>/<name>".
struct ScenarioJob {
  std::string name;
  JobConfig config;
};

/// A figure assembled from scenario jobs: either one analytical job
/// contributing the whole figure (`analytical_job` set), or a list of
/// simulation series, each taking one curve of a job's averaged result
/// under the given label.
struct ScenarioFigure {
  struct SeriesRef {
    std::string label;
    std::string job;  ///< scenario-local job name
    TimeSeries sim::AveragedResult::*curve =
        &sim::AveragedResult::ever_infected;
  };
  std::string id;
  std::string title;
  std::string x_label;
  std::string y_label;
  std::string analytical_job;  ///< empty for simulation figures
  std::vector<SeriesRef> series;
};

/// A second stage whose job configs depend on a first-stage result.
/// After every fixed job has run, `expand` receives the averaged result
/// of the scenario-local job `reference_job` and returns the derived
/// jobs plus the series that plot them, which extend figure `figure`.
struct ScenarioDerivation {
  struct Stage {
    std::vector<ScenarioJob> jobs;
    std::vector<ScenarioFigure::SeriesRef> series;
  };
  std::string reference_job;
  std::string figure;
  std::function<Stage(const sim::AveragedResult& reference)> expand;
};

struct ScenarioDef {
  std::string name;
  std::string description;
  std::vector<ScenarioJob> jobs;
  std::vector<ScenarioFigure> figures;
  std::optional<ScenarioDerivation> derived;
};

/// The built-in scenario catalogue: one scenario per figure group of
/// the paper (fig01–fig08, fig10, fig11) plus the beta and
/// backbone-depth ablation sweeps, parameterized by the usual
/// experiment knobs (runs, seed).
std::vector<ScenarioDef> builtin_scenarios(
    const core::ExperimentOptions& options);

/// Scenario by name from a catalogue; nullptr when absent.
const ScenarioDef* find_scenario(const std::vector<ScenarioDef>& catalogue,
                                 const std::string& name);

/// Checks scenarios without running them: local job names are unique
/// within a scenario, every figure and derivation references a known
/// job, and figure ids are unique across all of them. Throws
/// std::invalid_argument on the first violation.
void check_scenarios(const std::vector<ScenarioDef>& scenarios);

/// A scenario run: per-job outcomes (campaign order), the assembled
/// figures, and the machine-readable manifest.
struct CampaignReport {
  std::vector<JobOutcome> outcomes;
  std::vector<core::FigureData> figures;
  JsonValue manifest;
};

/// Checks the scenarios, expands them into one deduplicated Campaign
/// and runs it: the fixed jobs first, then the derived ones. Assembles
/// each scenario's figures from the outcomes. Figures whose jobs failed
/// are omitted; the failure stays visible in the outcomes and manifest.
CampaignReport run_scenarios(const std::vector<ScenarioDef>& scenarios,
                             const RunOptions& options);

}  // namespace dq::campaign
