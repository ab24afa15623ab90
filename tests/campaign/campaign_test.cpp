// Campaign engine tests: canonical JSON, content hashing, the artifact
// cache, the work-stealing pool, job scheduling, scenario checks and
// the derived stage, and the headline determinism matrix — artifacts
// must be byte-identical across --jobs 1 / --jobs 8 / cold-vs-warm
// cache, with a warm rerun reporting every job as a cache hit.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/json.hpp"
#include "campaign/pool.hpp"
#include "campaign/result_io.hpp"
#include "campaign/scenarios.hpp"
#include "stats/hash.hpp"

namespace dq::campaign {
namespace {

// --- canonical JSON ---

TEST(Json, DumpIsCanonical) {
  JsonValue o = JsonValue::object();
  o.set("b", JsonValue::integer(2));
  o.set("a", JsonValue::number(0.5));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::boolean(true));
  arr.push_back(JsonValue());
  arr.push_back(JsonValue::str("x\n\"y\""));
  o.set("list", std::move(arr));
  // Insertion order, no whitespace, shortest round-trip numbers,
  // escaped control characters.
  EXPECT_EQ(o.dump(), "{\"b\":2,\"a\":0.5,\"list\":[true,null,"
                      "\"x\\n\\\"y\\\"\"]}");
}

TEST(Json, ParseRoundTripsDump) {
  const std::string text =
      "{\"schema\":1,\"x\":-2.25,\"big\":18446744073709551615,"
      "\"s\":\"a\\u0041\\t\",\"v\":[1,2.5,false,null,{}]}";
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_EQ(parsed.at("big").as_uint(), 18446744073709551615ULL);
  EXPECT_EQ(parsed.at("s").as_string(), "aA\t");
  // dump∘parse is idempotent on canonical text (modulo the A
  // escape collapsing to its character).
  EXPECT_EQ(JsonValue::parse(parsed.dump()).dump(), parsed.dump());
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("nul"), std::invalid_argument);
}

TEST(Json, ParseCapsNesting) {
  // One line of brackets must not recurse the parser off its stack.
  EXPECT_THROW(JsonValue::parse(std::string(100000, '[')),
               std::invalid_argument);
  const std::size_t cap = JsonValue::kMaxDepth;
  const std::string at_cap = std::string(cap, '[') + std::string(cap, ']');
  EXPECT_EQ(JsonValue::parse(at_cap).dump(), at_cap);
  EXPECT_THROW(JsonValue::parse("[" + at_cap + "]"), std::invalid_argument);
  std::string objects;
  for (std::size_t i = 0; i <= cap; ++i) objects += "{\"a\":";
  objects += "1" + std::string(cap + 1, '}');
  EXPECT_THROW(JsonValue::parse(objects), std::invalid_argument);
}

TEST(Json, AsUintRejectsNonIntegersAndValuesPast64Bits) {
  EXPECT_EQ(JsonValue::parse("18446744073709551615").as_uint(),
            18446744073709551615ULL);
  EXPECT_EQ(JsonValue::parse("3.0").as_uint(), 3u);
  EXPECT_EQ(JsonValue::parse("3e0").as_uint(), 3u);
  EXPECT_EQ(JsonValue::parse("1.8446744073709550e19").as_uint(),
            18446744073709549568ULL);
  for (const char* text : {"18446744073709551616", "1.8446744073709552e19",
                           "1e30", "1e308", "3.7", "-1", "-0.5"})
    EXPECT_THROW(JsonValue::parse(text).as_uint(), std::invalid_argument)
        << text;
}

// --- hashing ---

JobConfig small_sim_job(double contact_rate = 0.8) {
  JobConfig job;
  job.topology.kind = TopologySpec::Kind::kStar;
  job.topology.nodes = 50;
  job.topology.backbone_fraction = 1.0 / 50.0;
  job.topology.edge_fraction = 0.0;
  job.sim.worm.contact_rate = contact_rate;
  job.sim.worm.initial_infected = 1;
  job.sim.max_ticks = 10.0;
  job.sim.seed = 7;
  job.runs = 2;
  return job;
}

TEST(JobHash, EqualConfigsEqualHashes) {
  EXPECT_EQ(job_hash(small_sim_job()), job_hash(small_sim_job()));
}

TEST(JobHash, AnyFieldEditMovesTheHash) {
  const std::uint64_t base = job_hash(small_sim_job());
  std::set<std::uint64_t> hashes{base};
  JobConfig j = small_sim_job();
  j.sim.seed = 8;
  hashes.insert(job_hash(j));
  j = small_sim_job();
  j.runs = 3;
  hashes.insert(job_hash(j));
  j = small_sim_job();
  j.topology.nodes = 51;
  hashes.insert(job_hash(j));
  j = small_sim_job();
  j.sim.deployment.node_forward_cap = {0u, 6u};
  hashes.insert(job_hash(j));
  j = small_sim_job();
  j.sim.quarantine.enabled = true;
  hashes.insert(job_hash(j));
  EXPECT_EQ(hashes.size(), 6u) << "a config edit failed to move the hash";
}

// --- artifact cache ---

TEST(ArtifactCacheTest, StoreLoadRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-cache-roundtrip";
  std::filesystem::remove_all(dir);
  const ArtifactCache cache(dir);
  EXPECT_FALSE(cache.contains(42));
  EXPECT_FALSE(cache.load(42).has_value());
  cache.store(42, "{\"x\":1}");
  EXPECT_TRUE(cache.contains(42));
  EXPECT_EQ(cache.load(42).value(), "{\"x\":1}");
  // Overwrite is atomic and last-writer-wins.
  cache.store(42, "{\"x\":2}");
  EXPECT_EQ(cache.load(42).value(), "{\"x\":2}");
  std::filesystem::remove_all(dir);
}

// --- work-stealing pool ---

TEST(Pool, RunsEveryTaskIncludingNestedSubmissions) {
  WorkStealingPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1);
      // Tasks submitted from inside tasks must also complete before
      // wait_idle returns.
      pool.submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 128);
  // The pool is reusable after an idle period.
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 129);
}

// --- scheduling ---

TEST(Campaign, RejectsDuplicateJobNames) {
  Campaign campaign;
  JobConfig fig;
  fig.kind = JobConfig::Kind::kAnalyticalFigure;
  fig.figure_id = "fig2";
  EXPECT_EQ(campaign.add_job("a", fig), 0u);
  EXPECT_EQ(campaign.add_job("b", fig), 1u);
  EXPECT_THROW(campaign.add_job("a", fig), std::invalid_argument);
}

TEST(Campaign, FailureStaysWithItsJob) {
  Campaign campaign;
  JobConfig good;
  good.kind = JobConfig::Kind::kAnalyticalFigure;
  good.figure_id = "fig2";
  JobConfig bad = good;
  bad.figure_id = "not-a-figure";
  campaign.add_job("good", good);
  campaign.add_job("bad", bad);
  campaign.add_job("after", good);

  RunOptions options;
  options.jobs = 4;
  options.use_cache = false;
  const std::vector<JobOutcome> outcomes = campaign.run(options);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_NE(outcomes[1].error.find("not-a-figure"), std::string::npos);
  EXPECT_TRUE(outcomes[2].ok());
  EXPECT_TRUE(outcomes[2].figure.has_value());

  // A later run over a suffix executes only those jobs.
  const std::vector<JobOutcome> tail = campaign.run(options, 2);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].name, "after");
}

TEST(Campaign, SimulationJobRunsOnItsConfigSeed) {
  RunOptions options;
  options.use_cache = false;
  const JobConfig job = small_sim_job();
  const JobOutcome outcome = execute_job("seeded", job, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  const sim::AveragedResult direct =
      sim::run_many(build_network(job.topology), job.sim, job.runs, 1);
  EXPECT_EQ(averaged_result_to_json(*outcome.sim_result).dump(),
            averaged_result_to_json(direct).dump());
}

// --- result round trips ---

TEST(ResultIo, AveragedResultSurvivesJsonRoundTrip) {
  RunOptions options;
  options.use_cache = false;
  const JobOutcome outcome = execute_job("rt", small_sim_job(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  ASSERT_TRUE(outcome.sim_result.has_value());

  const JsonValue encoded = averaged_result_to_json(*outcome.sim_result);
  const sim::AveragedResult decoded = averaged_result_from_json(
      JsonValue::parse(encoded.dump()));
  // Byte-stable: re-encoding the decoded result reproduces the exact
  // artifact text.
  EXPECT_EQ(averaged_result_to_json(decoded).dump(), encoded.dump());
  EXPECT_EQ(decoded.runs, outcome.sim_result->runs);
  EXPECT_EQ(decoded.perf_counters.ticks,
            outcome.sim_result->perf_counters.ticks);
}

// --- the determinism matrix ---

/// A tiny two-scenario campaign: two cheap simulations plus one
/// analytical figure, with one sim job shared verbatim between the
/// scenarios to exercise cross-scenario dedup.
std::vector<ScenarioDef> tiny_scenarios() {
  ScenarioDef first;
  first.name = "tiny-a";
  first.jobs.push_back({"sim", small_sim_job()});
  first.jobs.push_back({"fig", [] {
                          JobConfig job;
                          job.kind = JobConfig::Kind::kAnalyticalFigure;
                          job.figure_id = "fig2";
                          return job;
                        }()});
  ScenarioDef second;
  second.name = "tiny-b";
  second.jobs.push_back({"shared-sim", small_sim_job()});
  second.jobs.push_back({"faster", small_sim_job(1.6)});
  return {first, second};
}

TEST(Determinism, ArtifactsIdenticalAcrossThreadCountsAndCacheStates) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "dq-determinism";
  std::filesystem::remove_all(root);

  const auto artifacts_of = [&](const std::filesystem::path& cache_dir,
                                std::size_t jobs) {
    RunOptions options;
    options.jobs = jobs;
    options.cache_dir = cache_dir;
    return run_scenarios(tiny_scenarios(), options);
  };

  const CampaignReport serial = artifacts_of(root / "serial", 1);
  const CampaignReport parallel = artifacts_of(root / "parallel", 8);
  const CampaignReport warm = artifacts_of(root / "serial", 8);

  // Cross-scenario dedup: 4 declared jobs, 3 distinct configs.
  ASSERT_EQ(serial.outcomes.size(), 3u);
  ASSERT_EQ(parallel.outcomes.size(), 3u);

  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    SCOPED_TRACE(serial.outcomes[i].name);
    EXPECT_FALSE(serial.outcomes[i].cache_hit);
    EXPECT_FALSE(parallel.outcomes[i].cache_hit);
    // Warm rerun: every job must be served from cache...
    EXPECT_TRUE(warm.outcomes[i].cache_hit);
    // ...and every artifact must be byte-identical across thread
    // counts and cache temperature.
    EXPECT_EQ(serial.outcomes[i].artifact, parallel.outcomes[i].artifact);
    EXPECT_EQ(serial.outcomes[i].artifact, warm.outcomes[i].artifact);
    EXPECT_FALSE(serial.outcomes[i].artifact.empty());
  }

  // The manifest agrees with the outcomes on cache accounting.
  EXPECT_EQ(warm.manifest.at("cache_hits").as_uint(), 3u);
  EXPECT_EQ(warm.manifest.at("cache_misses").as_uint(), 0u);
  EXPECT_EQ(serial.manifest.at("cache_misses").as_uint(), 3u);

  // On-disk artifact files match across the two cold cache dirs.
  for (const JobOutcome& outcome : serial.outcomes) {
    std::ifstream a(ArtifactCache(root / "serial").path_for(outcome.hash),
                    std::ios::binary);
    std::ifstream b(ArtifactCache(root / "parallel").path_for(outcome.hash),
                    std::ios::binary);
    ASSERT_TRUE(a && b);
    std::string bytes_a((std::istreambuf_iterator<char>(a)),
                        std::istreambuf_iterator<char>());
    std::string bytes_b((std::istreambuf_iterator<char>(b)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b);
    EXPECT_EQ(bytes_a, outcome.artifact);
  }
  std::filesystem::remove_all(root);
}

TEST(Determinism, NoCacheRunMatchesCachedRun) {
  RunOptions no_cache;
  no_cache.use_cache = false;
  no_cache.jobs = 2;
  const CampaignReport a = run_scenarios(tiny_scenarios(), no_cache);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-nocache-compare";
  std::filesystem::remove_all(dir);
  RunOptions cached;
  cached.cache_dir = dir;
  cached.jobs = 2;
  const CampaignReport b = run_scenarios(tiny_scenarios(), cached);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i)
    EXPECT_EQ(a.outcomes[i].artifact, b.outcomes[i].artifact);
  std::filesystem::remove_all(dir);
}

TEST(Scenarios, BuiltinCatalogueExpandsAndDedups) {
  const std::vector<ScenarioDef> catalogue =
      builtin_scenarios(core::ExperimentOptions::quick());
  EXPECT_NE(find_scenario(catalogue, "fig01"), nullptr);
  EXPECT_NE(find_scenario(catalogue, "ablation-beta"), nullptr);
  EXPECT_EQ(find_scenario(catalogue, "nope"), nullptr);
  // Every job in the catalogue hashes distinctly (no accidental
  // duplicate configs within a scenario).
  for (const ScenarioDef& scenario : catalogue) {
    std::set<std::uint64_t> hashes;
    for (const ScenarioJob& job : scenario.jobs)
      EXPECT_TRUE(hashes.insert(job_hash(job.config)).second)
          << scenario.name << "/" << job.name;
  }
}

TEST(Scenarios, CatalogueReferencesCheckWithoutRunning) {
  const std::vector<ScenarioDef> catalogue =
      builtin_scenarios(core::ExperimentOptions::quick());
  EXPECT_NO_THROW(check_scenarios(catalogue));

  // Every simulated figure of the paper is defined once, in the
  // catalogue; only the trace figures fig9a/fig9b live elsewhere.
  std::set<std::string> ids;
  for (const ScenarioDef& scenario : catalogue)
    for (const ScenarioFigure& fig : scenario.figures) ids.insert(fig.id);
  for (const char* id : {"fig1a", "fig1b", "fig2", "fig3a", "fig3b", "fig4",
                         "fig5", "fig6", "fig7a", "fig7b", "fig8a", "fig8b",
                         "fig10", "fig11"})
    EXPECT_TRUE(ids.contains(id)) << id;

  // A figure id defined twice across the selection.
  std::vector<ScenarioDef> twice = catalogue;
  twice.push_back(*find_scenario(catalogue, "fig04"));
  EXPECT_THROW(check_scenarios(twice), std::invalid_argument);

  // A dangling series reference fails run_scenarios before any job is
  // queued.
  ScenarioDef broken = *find_scenario(catalogue, "fig04");
  broken.figures[0].series.push_back({"ghost", "no-such-job"});
  std::atomic<int> events{0};
  RunOptions options;
  options.use_cache = false;
  options.on_job_event = [&](const JobEvent&) { ++events; };
  EXPECT_THROW(run_scenarios({broken}, options), std::invalid_argument);
  EXPECT_EQ(events.load(), 0);

  ScenarioDef bad_reference = *find_scenario(catalogue, "fig08");
  bad_reference.derived->reference_job = "no-such-job";
  EXPECT_THROW(check_scenarios({bad_reference}), std::invalid_argument);
  ScenarioDef bad_target = *find_scenario(catalogue, "fig08");
  bad_target.derived->figure = "fig99";
  EXPECT_THROW(check_scenarios({bad_target}), std::invalid_argument);
}

TEST(Scenarios, DerivedStageReadsItsReferenceResult) {
  // The derived stage sees the reference job's averaged result and
  // adds a job (a shorter horizon) that exists only after the first
  // stage has run.
  ScenarioDef s;
  s.name = "staged";
  s.jobs.push_back({"reference", small_sim_job()});
  s.figures.push_back({"staged-fig", "t", "x", "y", "",
                       {{"reference", "reference"}}});
  double seen_final = -1.0;
  s.derived = ScenarioDerivation{
      "reference", "staged-fig",
      [&](const sim::AveragedResult& reference) {
        seen_final = reference.ever_infected.back_value();
        JobConfig job = small_sim_job();
        job.sim.max_ticks = 5.0;
        ScenarioDerivation::Stage stage;
        stage.jobs.push_back({"derived", job});
        stage.series.push_back({"derived", "derived"});
        return stage;
      }};

  RunOptions options;
  options.use_cache = false;
  const CampaignReport report = run_scenarios({s}, options);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].name, "staged/reference");
  EXPECT_EQ(report.outcomes[1].name, "staged/derived");
  EXPECT_TRUE(report.outcomes[1].ok()) << report.outcomes[1].error;
  EXPECT_EQ(seen_final,
            report.outcomes[0].sim_result->ever_infected.back_value());
  // One manifest covers both stages.
  EXPECT_EQ(report.manifest.at("jobs_total").as_uint(), 2u);
  ASSERT_EQ(report.figures.size(), 1u);
  ASSERT_EQ(report.figures[0].series.size(), 2u);
  EXPECT_EQ(report.figures[0].series[1].label, "derived");
  EXPECT_EQ(report.outcomes[1].config.sim.max_ticks, 5.0);
}

TEST(Scenarios, FailedReferenceDropsTheDerivedFigure) {
  ScenarioDef s;
  s.name = "staged";
  JobConfig broken = small_sim_job();
  broken.topology.nodes = 1;  // build_network rejects a 1-node star
  s.jobs.push_back({"reference", broken});
  s.jobs.push_back({"other", small_sim_job()});
  s.figures.push_back({"kept", "t", "x", "y", "", {{"other", "other"}}});
  s.figures.push_back({"staged-fig", "t", "x", "y", "", {}});
  bool expanded = false;
  s.derived = ScenarioDerivation{
      "reference", "staged-fig", [&](const sim::AveragedResult&) {
        expanded = true;
        return ScenarioDerivation::Stage{};
      }};

  RunOptions options;
  options.use_cache = false;
  const CampaignReport report = run_scenarios({s}, options);
  EXPECT_FALSE(expanded);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_FALSE(report.outcomes[0].ok());
  ASSERT_EQ(report.figures.size(), 1u);
  EXPECT_EQ(report.figures[0].id, "kept");
}

// --- observability through the campaign engine ---

TEST(CampaignObs, SimArtifactEmbedsDeterministicMetrics) {
  RunOptions options;
  options.use_cache = false;
  const JobOutcome outcome = execute_job("m", small_sim_job(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  ASSERT_FALSE(outcome.metrics.is_null());

  const JsonValue parsed = JsonValue::parse(outcome.artifact);
  const JsonValue* metrics = parsed.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->dump(), outcome.metrics.dump());
  const JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("sim.runs")->as_uint(), small_sim_job().runs);
  EXPECT_GT(counters->find("sim.ticks")->as_uint(), 0u);
  // Wall-clock metrics must not leak into the cached artifact.
  EXPECT_EQ(counters->find("trace.dropped"), nullptr);
  EXPECT_EQ(metrics->find("histograms")->find("sim.run_micros"), nullptr);
}

TEST(CampaignObs, CacheHitRestoresIdenticalMetricsSnapshot) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-obs-cache";
  std::filesystem::remove_all(dir);
  RunOptions options;
  options.cache_dir = dir;
  const JobOutcome cold = execute_job("m", small_sim_job(), options);
  const JobOutcome warm = execute_job("m", small_sim_job(), options);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_FALSE(cold.metrics.is_null());
  EXPECT_EQ(cold.metrics.dump(), warm.metrics.dump());
  // Manifest totals are therefore cold/warm-identical too.
  EXPECT_EQ(merge_outcome_metrics({cold}).dump(),
            merge_outcome_metrics({warm}).dump());
  std::filesystem::remove_all(dir);
}

TEST(CampaignObs, ManifestMergesPerJobMetrics) {
  RunOptions options;
  options.use_cache = false;
  const CampaignReport report = run_scenarios(tiny_scenarios(), options);
  const JsonValue* merged = report.manifest.find("metrics");
  ASSERT_NE(merged, nullptr);
  // Two distinct sim jobs of `runs` runs each (the analytical job
  // contributes nothing).
  EXPECT_EQ(merged->find("counters")->find("sim.runs")->as_uint(),
            2 * small_sim_job().runs);
  EXPECT_EQ(report.manifest.at("schema").as_uint(), 2u);
}

TEST(CampaignObs, TraceFilesAreByteIdenticalAcrossThreadCounts) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "dq-obs-traces";
  std::filesystem::remove_all(root);

  const auto run_with = [&](std::size_t jobs,
                            const std::filesystem::path& trace_dir) {
    RunOptions options;
    options.jobs = jobs;
    options.use_cache = false;
    options.trace_dir = trace_dir;
    return run_scenarios(tiny_scenarios(), options);
  };
  const CampaignReport serial = run_with(1, root / "serial");
  const CampaignReport parallel = run_with(8, root / "parallel");

  const auto read = [](const std::filesystem::path& p) {
    std::ifstream f(p, std::ios::binary);
    EXPECT_TRUE(f) << p;
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  };
  std::size_t traced = 0;
  for (const JobOutcome& outcome : serial.outcomes) {
    if (outcome.config.kind != JobConfig::Kind::kSimulation) continue;
    std::string file = outcome.name + ".ndjson";
    for (char& c : file)
      if (c == '/') c = '_';
    const std::string a = read(root / "serial" / file);
    EXPECT_EQ(a, read(root / "parallel" / file));
    EXPECT_FALSE(a.empty());
    ++traced;
  }
  EXPECT_EQ(traced, 2u);
  // Tracing never changes artifact bytes.
  RunOptions untraced;
  untraced.use_cache = false;
  const CampaignReport plain = run_scenarios(tiny_scenarios(), untraced);
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i)
    EXPECT_EQ(plain.outcomes[i].artifact, serial.outcomes[i].artifact);
  std::filesystem::remove_all(root);
}

TEST(CampaignObs, JobEventsFollowTheLifecycle) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-obs-events";
  std::filesystem::remove_all(dir);
  std::mutex mu;
  std::map<std::string, std::vector<JobPhase>> phases;
  RunOptions options;
  options.cache_dir = dir;
  options.jobs = 2;
  options.on_job_event = [&](const JobEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    phases[event.name].push_back(event.phase);
  };

  run_scenarios(tiny_scenarios(), options);
  for (const auto& [name, seq] : phases) {
    SCOPED_TRACE(name);
    ASSERT_EQ(seq.size(), 3u);
    EXPECT_EQ(seq[0], JobPhase::kQueued);
    EXPECT_EQ(seq[1], JobPhase::kStarted);
    EXPECT_EQ(seq[2], JobPhase::kFinished);
  }

  phases.clear();
  run_scenarios(tiny_scenarios(), options);  // warm: all cache hits
  for (const auto& [name, seq] : phases) {
    SCOPED_TRACE(name);
    ASSERT_EQ(seq.size(), 4u);
    EXPECT_EQ(seq[2], JobPhase::kCacheHit);
    EXPECT_EQ(seq[3], JobPhase::kFinished);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dq::campaign
