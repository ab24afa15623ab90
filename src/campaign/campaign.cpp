#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "campaign/cache.hpp"
#include "campaign/pool.hpp"
#include "campaign/result_io.hpp"
#include "core/experiments.hpp"
#include "obs/metrics.hpp"
#include "stats/hash.hpp"

namespace dq::campaign {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void notify(const RunOptions& options, std::size_t index,
            const std::string& name, JobPhase phase, bool cache_hit = false,
            double wall_seconds = 0.0) {
  if (!options.on_job_event) return;
  JobEvent event;
  event.index = index;
  event.name = name;
  event.phase = phase;
  event.cache_hit = cache_hit;
  event.wall_seconds = wall_seconds;
  options.on_job_event(event);
}

/// Job names use '/' for scenario scoping; flatten for the filesystem.
std::string trace_file_name(const std::string& job_name) {
  std::string out = job_name;
  for (char& c : out)
    if (c == '/') c = '_';
  out += ".ndjson";
  return out;
}

}  // namespace

const char* to_string(JobPhase phase) noexcept {
  switch (phase) {
    case JobPhase::kQueued:
      return "queued";
    case JobPhase::kStarted:
      return "started";
    case JobPhase::kCacheHit:
      return "cache_hit";
    case JobPhase::kFinished:
      return "finished";
    case JobPhase::kFailed:
      return "failed";
  }
  return "unknown";
}

std::size_t Campaign::add_job(std::string name, JobConfig config) {
  for (const JobEntry& existing : jobs_) {
    if (existing.name == name)
      throw std::invalid_argument("Campaign: duplicate job name " + name);
  }
  jobs_.push_back({std::move(name), std::move(config)});
  return jobs_.size() - 1;
}

JobOutcome execute_job(const std::string& name, const JobConfig& config,
                       const RunOptions& options, std::size_t index) {
  JobOutcome outcome;
  outcome.name = name;
  outcome.config = config;
  outcome.hash = job_hash(config);
  const auto start = std::chrono::steady_clock::now();
  notify(options, index, name, JobPhase::kStarted);
  // One span track per job: the Chrome trace lays jobs out as parallel
  // tracks, each holding the whole-job span plus its phases.
  obs::SpanBuffer* spans =
      options.profiler != nullptr ? options.profiler->track(name) : nullptr;
  const obs::Span job_span(spans, "job");
  try {
    const ArtifactCache cache(options.cache_dir);
    if (options.use_cache) {
      const obs::Span span(spans, "cache_lookup");
      if (std::optional<std::string> bytes = cache.load(outcome.hash)) {
        outcome.artifact = std::move(*bytes);
        outcome.cache_hit = true;
        notify(options, index, name, JobPhase::kCacheHit, /*cache_hit=*/true);
      }
    }
    if (!outcome.cache_hit) {
      if (config.kind == JobConfig::Kind::kSimulation) {
        const sim::Network net = build_network(config.topology);
        // Rings are only allocated when a trace is requested; metrics
        // always record (cheap, and needed for the artifact snapshot).
        const bool tracing = !options.trace_dir.empty();
        obs::MultiRunSink sink(config.runs,
                               tracing ? options.trace_ring_capacity : 0);
        // Serial inner runs: campaign parallelism is across jobs, and
        // nesting thread fan-out would oversubscribe the pool.
        std::optional<sim::AveragedResult> avg_out;
        {
          const obs::Span span(spans, "simulate");
          avg_out = sim::run_many(net, config.sim, config.runs,
                                  /*max_parallelism=*/1, &sink);
        }
        const sim::AveragedResult& avg = *avg_out;
        // The artifact embeds the deterministic-only snapshot: a pure
        // function of the job config (commutative counters, wall-clock
        // metrics excluded), so artifact bytes stay identical across
        // thread counts, cache states, and tracing on/off — and a
        // cache hit restores the same telemetry a fresh run produces.
        {
          const obs::Span span(spans, "serialize");
          JsonValue art = averaged_result_to_json(avg);
          art.set("metrics",
                  sink.metrics().snapshot(/*deterministic_only=*/true));
          outcome.artifact = art.dump();
        }
        if (tracing) {
          const obs::Span span(spans, "write_trace");
          std::filesystem::create_directories(options.trace_dir);
          std::ofstream out(options.trace_dir / trace_file_name(name),
                            std::ios::binary | std::ios::trunc);
          if (!out)
            throw std::runtime_error("execute_job: cannot write trace for " +
                                     name);
          sink.write_ndjson(out);
        }
      } else {
        const core::FigureData fig =
            core::analytical_figure(config.figure_id);
        outcome.artifact = figure_to_json(fig).dump();
      }
      if (options.use_cache) cache.store(outcome.hash, outcome.artifact);
    }
    // Parse the payload back from the artifact bytes (for hits and
    // misses alike) so consumers always see exactly what the artifact
    // records — a corrupt cache file fails here, loudly.
    const JsonValue parsed = JsonValue::parse(outcome.artifact);
    if (config.kind == JobConfig::Kind::kSimulation) {
      outcome.sim_result = averaged_result_from_json(parsed);
      if (const JsonValue* metrics = parsed.find("metrics"))
        outcome.metrics = *metrics;
    } else {
      outcome.figure = figure_from_json(parsed);
    }
  } catch (const std::exception& e) {
    outcome.error = e.what();
    outcome.sim_result.reset();
    outcome.figure.reset();
  }
  outcome.wall_seconds = seconds_since(start);
  notify(options, index, name,
         outcome.ok() ? JobPhase::kFinished : JobPhase::kFailed,
         outcome.cache_hit, outcome.wall_seconds);
  return outcome;
}

std::vector<JobOutcome> Campaign::run(const RunOptions& options,
                                      std::size_t first) const {
  std::vector<JobOutcome> outcomes(jobs_.size() -
                                   std::min(first, jobs_.size()));
  if (outcomes.empty()) return outcomes;
  WorkStealingPool pool(options.jobs);
  for (std::size_t i = first; i < jobs_.size(); ++i) {
    notify(options, i, jobs_[i].name, JobPhase::kQueued);
    pool.submit([this, &options, &outcomes, first, i] {
      outcomes[i - first] =
          execute_job(jobs_[i].name, jobs_[i].config, options, i);
    });
  }
  pool.wait_idle();
  return outcomes;
}

JsonValue build_manifest(const std::vector<JobOutcome>& outcomes,
                         const RunOptions& options,
                         double total_wall_seconds) {
  const ArtifactCache cache(options.cache_dir);
  JsonValue jobs = JsonValue::array();
  std::size_t hits = 0, misses = 0, failures = 0;
  for (const JobOutcome& outcome : outcomes) {
    JsonValue o = JsonValue::object();
    o.set("name", JsonValue::str(outcome.name));
    o.set("hash", JsonValue::str(hash_hex(outcome.hash)));
    o.set("kind",
          JsonValue::str(outcome.config.kind == JobConfig::Kind::kSimulation
                             ? "simulation"
                             : "analytical"));
    o.set("cache_hit", JsonValue::boolean(outcome.cache_hit));
    o.set("wall_seconds", JsonValue::number(outcome.wall_seconds));
    o.set("artifact",
          JsonValue::str(options.use_cache
                             ? cache.path_for(outcome.hash).string()
                             : std::string()));
    if (outcome.ok()) {
      outcome.cache_hit ? ++hits : ++misses;
      if (outcome.sim_result)
        o.set("perf", perf_counters_to_json(outcome.sim_result->perf_counters));
      // Restored from the artifact, so hits and misses report the same
      // snapshot — the manifest's metric totals are cold/warm-identical.
      if (!outcome.metrics.is_null()) o.set("metrics", outcome.metrics);
    } else {
      ++failures;
      o.set("error", JsonValue::str(outcome.error));
    }
    jobs.push_back(std::move(o));
  }
  JsonValue manifest = JsonValue::object();
  manifest.set("schema", JsonValue::integer(2));
  manifest.set("cache_dir",
               JsonValue::str(options.use_cache ? options.cache_dir.string()
                                                : std::string()));
  manifest.set("jobs_total", JsonValue::integer(outcomes.size()));
  manifest.set("cache_hits", JsonValue::integer(hits));
  manifest.set("cache_misses", JsonValue::integer(misses));
  manifest.set("failures", JsonValue::integer(failures));
  manifest.set("total_wall_seconds", JsonValue::number(total_wall_seconds));
  manifest.set("metrics", merge_outcome_metrics(outcomes));
  manifest.set("jobs", std::move(jobs));
  return manifest;
}

JsonValue merge_outcome_metrics(const std::vector<JobOutcome>& outcomes) {
  JsonValue total;
  for (const JobOutcome& outcome : outcomes) {
    if (!outcome.ok()) continue;
    obs::MetricsRegistry::merge_snapshot(total, outcome.metrics);
  }
  // An all-analytical (or legacy-artifact) campaign has no snapshots;
  // canonical empty object keeps the manifest schema stable.
  if (total.is_null()) {
    total = JsonValue::object();
    total.set("counters", JsonValue::object());
    total.set("gauges", JsonValue::object());
    total.set("histograms", JsonValue::object());
  }
  return total;
}

}  // namespace dq::campaign
