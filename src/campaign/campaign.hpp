// Declarative experiment-campaign engine.
//
// A Campaign is a list of content-hashed jobs. Each job's configuration
// is canonically serialized (job.hpp) and FNV-hashed; the hash names
// the job's on-disk artifact (cache.hpp). Execution runs on one shared
// work-stealing pool (pool.hpp) — results are byte-identical regardless
// of thread count, cache state, or completion order, because each job
// runs on its config's own seed and nothing about scheduling feeds into
// its RNG stream or its serialized output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/job.hpp"
#include "campaign/json.hpp"
#include "core/figure.hpp"
#include "obs/sink.hpp"
#include "simulator/runner.hpp"

namespace dq::campaign {

/// What a finished (or failed/skipped) job produced. Exactly one of
/// `sim_result` / `figure` is set on success, matching the job kind.
struct JobOutcome {
  std::string name;
  JobConfig config;
  std::uint64_t hash = 0;
  bool cache_hit = false;
  double wall_seconds = 0.0;       ///< manifest-only; never in artifact
  std::string artifact;            ///< canonical JSON bytes
  std::optional<sim::AveragedResult> sim_result;
  std::optional<core::FigureData> figure;
  /// Deterministic obs-registry snapshot recorded inside the artifact
  /// ("metrics" key) — restored from cache on a hit, so telemetry
  /// totals are cold/warm-identical. Null for analytical jobs and
  /// artifacts written before the obs layer existed.
  JsonValue metrics;
  std::string error;               ///< non-empty means the job failed

  bool ok() const noexcept { return error.empty(); }
};

/// Job lifecycle notifications (the campaign progress surface).
enum class JobPhase : std::uint8_t {
  kQueued,    ///< submitted to the pool
  kStarted,   ///< execution began (cache probe included)
  kCacheHit,  ///< artifact served from .dq-cache
  kFinished,  ///< completed OK (cache hit or fresh run)
  kFailed,    ///< completed with an error
};

const char* to_string(JobPhase phase) noexcept;

struct JobEvent {
  std::size_t index = 0;
  std::string name;
  JobPhase phase = JobPhase::kQueued;
  bool cache_hit = false;
  double wall_seconds = 0.0;  ///< kFinished/kFailed only
};

struct RunOptions {
  std::size_t jobs = 0;            ///< worker threads; 0 = hardware
  bool use_cache = true;
  std::filesystem::path cache_dir = ".dq-cache";
  /// Non-empty: freshly executed simulation jobs write their NDJSON
  /// event trace to <trace_dir>/<job name, '/'→'_'>.ndjson. Cache hits
  /// write no trace (events are not cached) — pass use_cache=false to
  /// trace everything. Trace output never feeds back into artifacts,
  /// so artifact bytes are identical with tracing on or off.
  std::filesystem::path trace_dir;
  /// Per-run trace ring capacity when trace_dir is set.
  std::size_t trace_ring_capacity = obs::kDefaultRingCapacity;
  /// Lifecycle callback; invoked from worker threads (must be
  /// thread-safe). Null = no notifications.
  std::function<void(const JobEvent&)> on_job_event;
  /// Span profiler for job lifecycle timing (null disables). Each job
  /// gets its own track (named after the job), so the Chrome trace
  /// shows the campaign's parallel schedule; Profiler::track() is
  /// thread-safe and spans never touch job state, so artifacts stay
  /// byte-identical with profiling on or off.
  obs::Profiler* profiler = nullptr;
};

class Campaign {
 public:
  /// Adds a job and returns its index. Throws std::invalid_argument on
  /// a duplicate name.
  std::size_t add_job(std::string name, JobConfig config);

  std::size_t size() const noexcept { return jobs_.size(); }

  /// Executes jobs [first, size()) on a work-stealing pool of
  /// `options.jobs` threads; outcome i belongs to job first + i. A
  /// failed job carries its error and the others still run.
  std::vector<JobOutcome> run(const RunOptions& options,
                              std::size_t first = 0) const;

 private:
  struct JobEntry {
    std::string name;
    JobConfig config;
  };
  std::vector<JobEntry> jobs_;
};

/// Runs a single job to an outcome: cache probe, then (on a miss)
/// build + simulate/evaluate, serialize, store. A simulation runs on
/// its config's own `seed`, so the series of one figure, which share
/// that seed, share their random numbers.
JobOutcome execute_job(const std::string& name, const JobConfig& config,
                       const RunOptions& options, std::size_t index = 0);

/// Machine-readable run manifest: per-job name/hash/kind/cache_hit/
/// wall_seconds/artifact-path/perf/metrics plus aggregate totals
/// (including the merged deterministic "metrics" across simulation
/// jobs, identical cold or warm). Wall-clock lives only here, never in
/// artifacts.
JsonValue build_manifest(const std::vector<JobOutcome>& outcomes,
                         const RunOptions& options, double total_wall_seconds);

/// Merged deterministic metrics across successful jobs (the manifest's
/// "metrics" object, exposed for `dqctl campaign run --metrics-out`).
JsonValue merge_outcome_metrics(const std::vector<JobOutcome>& outcomes);

}  // namespace dq::campaign
