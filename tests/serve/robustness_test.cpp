// Chaos/robustness coverage for the serve pipeline: checkpoint/restore
// byte-identity across shard counts, overload shedding, the stall
// watchdog, transient-sink retries, and corrupt-checkpoint rejection —
// all driven through the failpoint registry (serve/failpoints.hpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/checkpoint.hpp"
#include "serve/failpoints.hpp"
#include "serve/server.hpp"
#include "serve/source.hpp"

namespace dq::serve {
namespace {

quarantine::QuarantineConfig serve_config() {
  quarantine::QuarantineConfig c;
  c.enabled = true;
  c.detector.window = 0.05;
  c.detector.contact_rate_threshold = 0.0;
  c.detector.distinct_dest_threshold = 0.0;
  c.detector.failure_ratio_threshold = 0.7;
  c.detector.failure_min_attempts = 3;
  c.policy.base_period = 0.5;
  c.policy.escalation = 2.0;
  c.policy.max_period = 4.0;
  return c;
}

SyntheticConfig synth_config(std::uint64_t flows) {
  SyntheticConfig s;
  s.flows = flows;
  s.hosts = 512;
  s.worm_fraction = 0.05;
  s.flow_interval = 1e-4;
  return s;
}

ServeOptions base_options(std::size_t shards) {
  ServeOptions o;
  o.shards = shards;
  o.num_hosts = 512;
  o.quarantine = serve_config();
  return o;
}

/// Shared-bitmap backend over the same 512 hosts.
ServeOptions compact_options(std::size_t shards) {
  ServeOptions o = base_options(shards);
  o.quarantine.estimator_backend =
      quarantine::EstimatorBackend::kSharedBitmap;
  o.quarantine.compact.block_hosts = 64;  // 512 hosts -> 8 blocks
  o.quarantine.compact.pool_bits_per_host = 6;
  o.quarantine.compact.virtual_bits = 64;
  return o;
}

struct RunResult {
  ServeSummary summary;
  std::string decisions;
  campaign::JsonValue counters;  ///< metrics snapshot "counters" object
};

RunResult run_synthetic(const ServeOptions& options,
                        const SyntheticConfig& synth) {
  ServeServer server(options);
  SyntheticFlowSource source(synth);
  std::ostringstream decisions;
  RunResult r;
  r.summary = server.run(source, &decisions, nullptr);
  r.decisions = decisions.str();
  r.counters = server.metrics().snapshot().at("counters");
  return r;
}

std::uint64_t counter_value(const campaign::JsonValue& counters,
                            std::string_view name) {
  const campaign::JsonValue* v = counters.find(name);
  return v == nullptr ? 0 : v->as_uint();
}

/// Decision stream minus its trailing summary line.
std::string drop_summary_line(const std::string& s) {
  if (s.empty()) return s;
  const auto pos = s.rfind('\n', s.size() - 2);
  return pos == std::string::npos ? std::string() : s.substr(0, pos + 1);
}

std::filesystem::path temp_file(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("dq_robustness_" + std::to_string(::getpid()) + "_" + tag);
}

struct TempFile {
  explicit TempFile(const std::string& tag) : path(temp_file(tag)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  std::filesystem::path path;
};

/// `doc` with the number right after the first `marker` replaced by
/// `value`.
std::string with_number_after(std::string doc, const std::string& marker,
                              const std::string& value) {
  const std::size_t pos = doc.find(marker);
  if (pos == std::string::npos) {
    ADD_FAILURE() << "no " << marker;
    return doc;
  }
  const std::size_t start = pos + marker.size();
  return doc.replace(start, doc.find_first_of(",]}", start) - start, value);
}

TEST(ServeRobustness, RestoreIsByteIdenticalAcrossShardCounts) {
  constexpr std::uint64_t kFlows = 20'000;
  constexpr std::uint64_t kCut = 12'000;
  const std::string full =
      run_synthetic(base_options(1), synth_config(kFlows)).decisions;
  ASSERT_FALSE(full.empty());

  // Checkpoint the first kCut flows at one shard count, resume at
  // another (both directions): prefix + resumed must equal the
  // uninterrupted stream byte for byte, summary line included.
  for (const auto& [ck_shards, resume_shards] :
       {std::pair<std::size_t, std::size_t>{1, 4}, {4, 1}}) {
    TempFile ck("restore_ck");
    ServeOptions prefix_opt = base_options(ck_shards);
    prefix_opt.checkpoint_path = ck.path.string();
    const RunResult prefix =
        run_synthetic(prefix_opt, synth_config(kCut));
    EXPECT_EQ(prefix.summary.flows_ingested, kCut);

    ServeOptions resume_opt = base_options(resume_shards);
    resume_opt.restore = std::make_shared<const CheckpointState>(
        load_checkpoint_file(ck.path.string()));
    SyntheticConfig resume_synth = synth_config(kFlows);
    resume_synth.start_flow = kCut;
    const RunResult resumed = run_synthetic(resume_opt, resume_synth);

    EXPECT_EQ(resumed.summary.flows_ingested, kFlows);
    EXPECT_EQ(resumed.summary.flows_decided, kFlows);
    EXPECT_EQ(drop_summary_line(prefix.decisions) + resumed.decisions,
              full)
        << "checkpoint at " << ck_shards << " shards, resume at "
        << resume_shards;
  }
}

TEST(ServeRobustness, CheckpointBytesAreShardCountInvariant) {
  constexpr std::uint64_t kCut = 12'000;
  std::string first;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    TempFile ck("invariant_ck");
    ServeOptions opt = base_options(shards);
    opt.checkpoint_path = ck.path.string();
    run_synthetic(opt, synth_config(kCut));
    std::ifstream in(ck.path);
    std::stringstream bytes;
    bytes << in.rdbuf();
    ASSERT_FALSE(bytes.str().empty());
    if (first.empty())
      first = bytes.str();
    else
      EXPECT_EQ(bytes.str(), first) << shards << " shards";
  }

  // The bytes are canonical JSON (the generic tree reproduces them),
  // and the document round-trips through the typed state exactly.
  const std::string doc = first.substr(0, first.size() - 1);  // '\n'
  EXPECT_EQ(campaign::JsonValue::parse(doc).dump(), doc);
  const CheckpointState state =
      CheckpointState::from_json(campaign::JsonValue::parse(first));
  EXPECT_EQ(state.flows_ingested, kCut);
  EXPECT_EQ(state.num_hosts, 512u);
  EXPECT_EQ(serialize_checkpoint(state) + "\n", first);
}

TEST(ServeRobustness, PeriodicCheckpointsLandOnFinalState) {
  TempFile ck("periodic_ck");
  ServeOptions opt = base_options(2);
  opt.checkpoint_path = ck.path.string();
  opt.checkpoint_interval_flows = 3'000;
  const RunResult r = run_synthetic(opt, synth_config(10'000));
  EXPECT_EQ(r.summary.flows_ingested, 10'000u);
  const CheckpointState state = load_checkpoint_file(ck.path.string());
  EXPECT_EQ(state.flows_ingested, 10'000u);
}

TEST(ServeRobustness, ShedPolicyDegradesInsteadOfStalling) {
  // Shard 0's worker needs 1 ms per flow; with 64-slot queues the
  // router must shed to keep ingesting. The run stays bounded: shed
  // flows are dropped at the router, never queued.
  ScopedFailpoints fp("slow_shard:0:1000");
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kShed;
  opt.queue_capacity = 64;
  const RunResult r = run_synthetic(opt, synth_config(30'000));

  EXPECT_GT(r.summary.shed_flows, 0u);
  EXPECT_TRUE(r.summary.degraded);
  EXPECT_EQ(r.summary.flows_ingested, 30'000u);
  // Every ingested flow is either decided or counted shed — none lost.
  EXPECT_EQ(r.summary.flows_decided + r.summary.shed_flows,
            r.summary.flows_ingested);
  EXPECT_EQ(counter_value(r.counters, "serve.shed_flows"),
            r.summary.shed_flows);
  // The summary line records the degradation.
  EXPECT_NE(r.decisions.find("\"degraded\":true"), std::string::npos);
}

TEST(ServeRobustness, StallWatchdogFailsTheRunWithDiagnostic) {
  // Shard 0 is effectively wedged (1 s per flow); in block mode the
  // router would wait forever — the watchdog must fail the run in
  // bounded time with a per-shard diagnostic instead.
  ScopedFailpoints fp("slow_shard:0:1000000");
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kBlock;
  opt.queue_capacity = 16;
  opt.stall_timeout_seconds = 0.3;
  ServeServer server(opt);
  SyntheticFlowSource source(synth_config(50'000));
  try {
    server.run(source, nullptr, nullptr);
    FAIL() << "expected ServeStallError";
  } catch (const ServeStallError& e) {
    EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos)
        << e.what();
  }
}

TEST(ServeRobustness, BlockedRouterCountsStallsAndRecovers) {
  // A merely slow shard (300 us per flow) in block mode: the run still
  // completes with every flow decided, and the bounded-backoff paths
  // record the pressure in wall-clock counters.
  ScopedFailpoints fp("slow_shard:0:300");
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kBlock;
  opt.queue_capacity = 16;
  const RunResult r = run_synthetic(opt, synth_config(2'000));
  EXPECT_EQ(r.summary.flows_ingested, 2'000u);
  EXPECT_EQ(r.summary.flows_decided, 2'000u);
  EXPECT_EQ(r.summary.shed_flows, 0u);
  EXPECT_FALSE(r.summary.degraded);
  EXPECT_GE(counter_value(r.counters, "serve.router_stalls"), 1u);
}

TEST(ServeRobustness, TransientSinkErrorsRetryWithoutChangingTheStream) {
  const RunResult clean =
      run_synthetic(base_options(2), synth_config(20'000));
  ScopedFailpoints fp("sink_error:3");
  const RunResult faulty =
      run_synthetic(base_options(2), synth_config(20'000));
  EXPECT_EQ(faulty.decisions, clean.decisions);
  EXPECT_EQ(counter_value(faulty.counters, "serve.sink_retries"), 3u);
  EXPECT_EQ(counter_value(clean.counters, "serve.sink_retries"), 0u);
}

TEST(ServeRobustness, TornCheckpointWriteIsRejectedOnRestore) {
  TempFile ck("torn_ck");
  obs::TraceRing ring(obs::kDefaultRingCapacity);
  {
    ScopedFailpoints fp("torn_checkpoint:1");
    ServeOptions opt = base_options(1);
    opt.checkpoint_path = ck.path.string();
    opt.obs.trace = &ring;
    run_synthetic(opt, synth_config(5'000));
  }
  EXPECT_THROW(load_checkpoint_file(ck.path.string()), CheckpointError);
  // The service believed the write succeeded — the trace records it;
  // the torn bytes are caught on restore, not write.
  std::size_t writes = 0;
  for (const obs::Event& e : ring.events())
    writes += e.kind == obs::EventKind::kCheckpointWrite ? 1 : 0;
  EXPECT_EQ(writes, 1u);
}

TEST(ServeRobustness, CorruptCheckpointsRaiseCheckpointError) {
  // Missing file.
  EXPECT_THROW(load_checkpoint_file(temp_file("missing").string()),
               CheckpointError);
  // Not JSON at all.
  {
    TempFile f("garbage_ck");
    std::ofstream(f.path) << "definitely not json\n";
    EXPECT_THROW(load_checkpoint_file(f.path.string()), CheckpointError);
  }
  // Valid JSON, wrong document.
  {
    TempFile f("wrongdoc_ck");
    std::ofstream(f.path) << "{\"format\":\"something_else\"}\n";
    EXPECT_THROW(load_checkpoint_file(f.path.string()), CheckpointError);
  }
  // A truncated copy of a real checkpoint.
  {
    TempFile good("good_ck");
    ServeOptions opt = base_options(1);
    opt.checkpoint_path = good.path.string();
    run_synthetic(opt, synth_config(5'000));
    std::ifstream in(good.path);
    std::stringstream bytes;
    bytes << in.rdbuf();
    TempFile torn("truncated_ck");
    std::ofstream(torn.path)
        << bytes.str().substr(0, bytes.str().size() / 2);
    EXPECT_THROW(load_checkpoint_file(torn.path.string()),
                 CheckpointError);
  }
  // Values their fields cannot hold: each used to be truncated or
  // clamped into an accepted checkpoint that re-serialized differently.
  for (const bool compact : {false, true}) {
    TempFile good("good_values_ck");
    ServeOptions opt = compact ? compact_options(1) : base_options(1);
    opt.checkpoint_path = good.path.string();
    run_synthetic(opt, synth_config(5'000));
    std::ifstream in(good.path);
    std::stringstream bytes;
    bytes << in.rdbuf();
    ASSERT_NO_THROW(load_checkpoint_file(good.path.string()));
    std::vector<std::pair<std::string, std::string>> edits = {
        {"\"num_hosts\":", "4294967808"},  // 2^32 + 512 wrapped to 512
        {"\"strikes\":[", "4294967296"},
        {"\"det_contacts\":[", "4294967297"},
        {"\"det_window\":[", "-5"},
        {"\"det_window\":[", "9223372036854775808"},
    };
    if (compact) edits.push_back({"\"window\":[", "-5"});  // block window
    for (const auto& [marker, value] : edits) {
      TempFile f("bad_value_ck");
      std::ofstream(f.path) << with_number_after(bytes.str(), marker, value);
      EXPECT_THROW(load_checkpoint_file(f.path.string()), CheckpointError)
          << marker << value;
    }
  }
}

TEST(ServeRobustness, RestoreValidatesHostCountAndConfig) {
  TempFile ck("validate_ck");
  ServeOptions opt = base_options(1);
  opt.checkpoint_path = ck.path.string();
  run_synthetic(opt, synth_config(5'000));
  const auto restore = std::make_shared<const CheckpointState>(
      load_checkpoint_file(ck.path.string()));

  {
    ServeOptions bad = base_options(1);
    bad.num_hosts = 1024;  // checkpoint was taken with 512
    bad.restore = restore;
    EXPECT_THROW(ServeServer{bad}, std::invalid_argument);
  }
  {
    ServeOptions bad = base_options(1);
    bad.quarantine.policy.base_period = 99.0;  // different thresholds
    bad.restore = restore;
    EXPECT_THROW(ServeServer{bad}, std::invalid_argument);
  }
}

// ---------------------------------------------------------------------
// Shared-bitmap backend: checkpoints gain an "estimator_store" section
// (the block pools), which must survive shard-count changes and reject
// corruption with typed errors.

TEST(ServeRobustness, CompactRestoreIsByteIdenticalAcrossShardCounts) {
  constexpr std::uint64_t kFlows = 20'000;
  constexpr std::uint64_t kCut = 12'000;
  const std::string full =
      run_synthetic(compact_options(1), synth_config(kFlows)).decisions;
  ASSERT_FALSE(full.empty());

  for (const auto& [ck_shards, resume_shards] :
       {std::pair<std::size_t, std::size_t>{1, 4}, {4, 1}}) {
    TempFile ck("compact_restore_ck");
    ServeOptions prefix_opt = compact_options(ck_shards);
    prefix_opt.checkpoint_path = ck.path.string();
    const RunResult prefix =
        run_synthetic(prefix_opt, synth_config(kCut));
    EXPECT_EQ(prefix.summary.flows_ingested, kCut);

    ServeOptions resume_opt = compact_options(resume_shards);
    resume_opt.restore = std::make_shared<const CheckpointState>(
        load_checkpoint_file(ck.path.string()));
    SyntheticConfig resume_synth = synth_config(kFlows);
    resume_synth.start_flow = kCut;
    const RunResult resumed = run_synthetic(resume_opt, resume_synth);

    EXPECT_EQ(resumed.summary.flows_ingested, kFlows);
    EXPECT_EQ(drop_summary_line(prefix.decisions) + resumed.decisions,
              full)
        << "checkpoint at " << ck_shards << " shards, resume at "
        << resume_shards;
  }
}

TEST(ServeRobustness, CompactCheckpointBytesAreShardCountInvariant) {
  constexpr std::uint64_t kCut = 12'000;
  std::string first;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    TempFile ck("compact_invariant_ck");
    ServeOptions opt = compact_options(shards);
    opt.checkpoint_path = ck.path.string();
    run_synthetic(opt, synth_config(kCut));
    std::ifstream in(ck.path);
    std::stringstream bytes;
    bytes << in.rdbuf();
    ASSERT_FALSE(bytes.str().empty());
    if (first.empty())
      first = bytes.str();
    else
      EXPECT_EQ(bytes.str(), first) << shards << " shards";
  }
  EXPECT_NE(first.find("\"estimator_store\""), std::string::npos);

  // The bytes are canonical JSON, and the document round-trips through
  // the typed state exactly, store section included.
  const std::string doc = first.substr(0, first.size() - 1);  // '\n'
  EXPECT_EQ(campaign::JsonValue::parse(doc).dump(), doc);
  const CheckpointState state =
      CheckpointState::from_json(campaign::JsonValue::parse(first));
  ASSERT_TRUE(state.store.has_value());
  EXPECT_EQ(state.store->num_blocks(), 8u);
  EXPECT_EQ(serialize_checkpoint(state) + "\n", first);
}

TEST(ServeRobustness, CorruptEstimatorStoreIsRejectedOnRestore) {
  TempFile ck("compact_corrupt_ck");
  ServeOptions opt = compact_options(2);
  opt.checkpoint_path = ck.path.string();
  run_synthetic(opt, synth_config(5'000));
  const CheckpointState good = load_checkpoint_file(ck.path.string());
  ASSERT_TRUE(good.store.has_value());

  const auto rejected = [](const CheckpointState& bad) {
    ServeOptions r = compact_options(2);
    r.restore = std::make_shared<const CheckpointState>(bad);
    EXPECT_THROW(ServeServer{r}, std::invalid_argument);
  };
  // Store section dropped from a compact checkpoint.
  {
    CheckpointState bad = good;
    bad.store.reset();
    rejected(bad);
  }
  // Truncated pool array.
  {
    CheckpointState bad = good;
    bad.store->pool.pop_back();
    rejected(bad);
  }
  // Wrong geometry (block count from some other config).
  {
    CheckpointState bad = good;
    bad.store->window.resize(99, -1);
    bad.store->pool.resize(99 * bad.store->words_per_block, 0);
    rejected(bad);
  }
  // Wrong pool width (words per block from some other config).
  {
    CheckpointState bad = good;
    bad.store->words_per_block /= 2;
    bad.store->pool.resize(bad.store->num_blocks() *
                           bad.store->words_per_block);
    rejected(bad);
  }
}

TEST(ServeRobustness, EstimatorStoreOnExactCheckpointRejected) {
  TempFile ck("exact_store_ck");
  ServeOptions opt = base_options(1);
  opt.checkpoint_path = ck.path.string();
  run_synthetic(opt, synth_config(5'000));
  CheckpointState bad = load_checkpoint_file(ck.path.string());
  ASSERT_FALSE(bad.store.has_value());
  bad.store.emplace();  // store on an exact engine

  ServeOptions r = base_options(1);
  r.restore = std::make_shared<const CheckpointState>(bad);
  EXPECT_THROW(ServeServer{r}, std::invalid_argument);
}

TEST(ServeRobustness, ParseErrorSamplesSurfaceInSummary) {
  std::stringstream in;
  const std::string long_junk(300, 'x');
  in << "{\"t\":0.1,\"host\":1,\"dest\":2,\"failed\":false}\n"
     << "not json at all\n"
     << long_junk << "\n"
     << "{\"t\":0.2,\"host\":9999,\"dest\":2,\"failed\":false}\n"
     << "{broken\n"
     << "[1,2,3]\n"
     << "{\"host\":1}\n"
     << "still bad\n"
     << "{\"t\":0.3,\"host\":2,\"dest\":3,\"failed\":true}\n";
  NdjsonFlowSource source(in, 512);
  ServeOptions opt = base_options(2);
  ServeServer server(opt);
  std::ostringstream decisions;
  const ServeSummary summary = server.run(source, &decisions, nullptr);

  EXPECT_EQ(summary.flows_ingested, 2u);
  EXPECT_EQ(summary.parse_errors, 7u);
  // Only the first kMaxErrorSamples are kept, each capped in length.
  ASSERT_EQ(summary.parse_error_samples.size(),
            NdjsonFlowSource::kMaxErrorSamples);
  EXPECT_EQ(summary.parse_error_samples[0], "not json at all");
  EXPECT_EQ(summary.parse_error_samples[1].size(),
            NdjsonFlowSource::kMaxSampleLength);
  EXPECT_NE(decisions.str().find("\"parse_error_samples\":[\"not json"),
            std::string::npos);
}

TEST(ServeRobustness, CleanRunsOmitParseErrorSamples) {
  const RunResult r = run_synthetic(base_options(1), synth_config(100));
  EXPECT_TRUE(r.summary.parse_error_samples.empty());
  EXPECT_EQ(r.decisions.find("parse_error_samples"), std::string::npos);
}

TEST(ServeRobustness, SyntheticStartFlowSkipsDeterministically) {
  SyntheticConfig full_cfg = synth_config(1'000);
  SyntheticConfig tail_cfg = full_cfg;
  tail_cfg.start_flow = 400;
  SyntheticFlowSource full(full_cfg);
  SyntheticFlowSource tail(tail_cfg);
  Flow f;
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(full.next(f));
  Flow g;
  while (tail.next(g)) {
    ASSERT_TRUE(full.next(f));
    EXPECT_EQ(f.time, g.time);
    EXPECT_EQ(f.host, g.host);
    EXPECT_EQ(f.dest, g.dest);
    EXPECT_EQ(f.failed, g.failed);
    EXPECT_EQ(f.labeled_worm, g.labeled_worm);
  }
  EXPECT_FALSE(full.next(f));  // both exhausted together
}

TEST(ServeRobustness, FailpointGrammarIsValidated) {
  Failpoints fp;
  EXPECT_THROW(fp.configure("bogus"), std::invalid_argument);
  EXPECT_THROW(fp.configure("slow_shard:1"), std::invalid_argument);
  EXPECT_THROW(fp.configure("slow_shard:a:b"), std::invalid_argument);
  EXPECT_THROW(fp.configure("sink_error:x"), std::invalid_argument);
  EXPECT_THROW(fp.configure("torn_checkpoint:"), std::invalid_argument);
  EXPECT_THROW(fp.configure("sink_error:1,junk"), std::invalid_argument);

  fp.configure("slow_shard:2:50,sink_error:1");
  EXPECT_TRUE(fp.active());
  EXPECT_EQ(fp.slow_shard_micros(2), 50u);
  EXPECT_EQ(fp.slow_shard_micros(0), 0u);
  EXPECT_TRUE(fp.consume_sink_error());
  EXPECT_FALSE(fp.consume_sink_error());
  fp.configure("");
  EXPECT_FALSE(fp.active());
}

// ---------------------------------------------------------------------
// Robustness transitions are observable: the serve pipeline emits
// TraceRing events for checkpoint writes/restores, shed episodes, sink
// retries, and stalls, so chaos runs can be audited after the fact.

std::size_t count_events(const obs::TraceRing& ring, obs::EventKind kind) {
  std::size_t n = 0;
  for (const obs::Event& e : ring.events()) n += e.kind == kind ? 1 : 0;
  return n;
}

TEST(ServeRobustness, ShedEpisodesEmitTraceEvents) {
  ScopedFailpoints fp("slow_shard:0:1000");
  obs::TraceRing ring(obs::kDefaultRingCapacity);
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kShed;
  opt.queue_capacity = 64;
  opt.obs.trace = &ring;
  const RunResult r = run_synthetic(opt, synth_config(30'000));
  ASSERT_GT(r.summary.shed_flows, 0u);

  // Episodes are bracketed: every shed_start has a matching shed_end,
  // and the shed_end values (flows shed per episode) sum to the total.
  const std::size_t starts = count_events(ring, obs::EventKind::kShedStart);
  const std::size_t ends = count_events(ring, obs::EventKind::kShedEnd);
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, ends);
  std::uint64_t shed_total = 0;
  for (const obs::Event& e : ring.events())
    if (e.kind == obs::EventKind::kShedEnd) shed_total += e.value;
  EXPECT_EQ(shed_total, r.summary.shed_flows);
}

TEST(ServeRobustness, SinkRetriesEmitTraceEvents) {
  ScopedFailpoints fp("sink_error:3");
  obs::TraceRing ring(obs::kDefaultRingCapacity);
  ServeOptions opt = base_options(2);
  opt.obs.trace = &ring;
  run_synthetic(opt, synth_config(20'000));
  const std::size_t retries =
      count_events(ring, obs::EventKind::kSinkRetry);
  EXPECT_EQ(retries, 3u);
}

TEST(ServeRobustness, CheckpointWriteAndRestoreEmitTraceEvents) {
  TempFile ck("obs_ck");
  obs::TraceRing write_ring(obs::kDefaultRingCapacity);
  {
    ServeOptions opt = base_options(2);
    opt.checkpoint_path = ck.path.string();
    opt.checkpoint_interval_flows = 3'000;
    opt.obs.trace = &write_ring;
    run_synthetic(opt, synth_config(10'000));
  }
  // 10k flows / 3k interval = 3 periodic writes, plus the final one.
  EXPECT_EQ(count_events(write_ring, obs::EventKind::kCheckpointWrite), 4u);
  // The final write records the full stream.
  std::uint64_t last_flows = 0;
  for (const obs::Event& e : write_ring.events())
    if (e.kind == obs::EventKind::kCheckpointWrite) last_flows = e.value;
  EXPECT_EQ(last_flows, 10'000u);

  obs::TraceRing restore_ring(obs::kDefaultRingCapacity);
  ServeOptions resume = base_options(2);
  resume.restore = std::make_shared<const CheckpointState>(
      load_checkpoint_file(ck.path.string()));
  resume.obs.trace = &restore_ring;
  SyntheticConfig tail = synth_config(12'000);
  tail.start_flow = 10'000;
  run_synthetic(resume, tail);
  const std::vector<obs::Event> events = restore_ring.events();
  ASSERT_FALSE(events.empty());
  // The restore event leads the trace and carries the restored flow
  // count.
  EXPECT_EQ(events[0].kind, obs::EventKind::kCheckpointRestore);
  EXPECT_EQ(events[0].value, 10'000u);
}

TEST(ServeRobustness, StallsEmitATraceEventNamingTheShard) {
  ScopedFailpoints fp("slow_shard:1:1000000");
  obs::TraceRing ring(obs::kDefaultRingCapacity);
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kBlock;
  opt.queue_capacity = 16;
  opt.stall_timeout_seconds = 0.3;
  opt.obs.trace = &ring;
  ServeServer server(opt);
  SyntheticFlowSource source(synth_config(50'000));
  EXPECT_THROW(server.run(source, nullptr, nullptr), ServeStallError);
  bool found = false;
  for (const obs::Event& e : ring.events())
    if (e.kind == obs::EventKind::kStall) {
      found = true;
      EXPECT_EQ(e.id, 1u);
    }
  EXPECT_TRUE(found);
}

TEST(ServeRobustness, ProfilerOnOrOffKeepsDecisionBytes) {
  // Chaos leg: a sink-retry run with the profiler on must still equal
  // the clean, unprofiled stream byte for byte (retries are invisible,
  // spans are invisible).
  const std::string clean =
      run_synthetic(base_options(2), synth_config(20'000)).decisions;
  ASSERT_FALSE(clean.empty());
  {
    ScopedFailpoints fp("sink_error:3");
    obs::Profiler profiler;
    ServeOptions opt = base_options(2);
    opt.profiler = &profiler;
    const RunResult r = run_synthetic(opt, synth_config(20'000));
    EXPECT_GT(profiler.total_spans(), 0u);
    EXPECT_EQ(r.decisions, clean);
    EXPECT_EQ(counter_value(r.counters, "serve.sink_retries"), 3u);
  }
  // Failpoint-free leg at a different shard count.
  obs::Profiler profiler;
  ServeOptions opt = base_options(4);
  opt.profiler = &profiler;
  const std::string profiled =
      run_synthetic(opt, synth_config(20'000)).decisions;
  EXPECT_GT(profiler.total_spans(), 0u);
  EXPECT_EQ(profiled, clean);
}

TEST(ServeRobustness, ServerOptionValidation) {
  {
    ServeOptions opt = base_options(1);
    opt.stall_timeout_seconds = -1.0;
    EXPECT_THROW(ServeServer{opt}, std::invalid_argument);
  }
  {
    ServeOptions opt = base_options(1);
    opt.checkpoint_interval_flows = 100;  // interval without a path
    EXPECT_THROW(ServeServer{opt}, std::invalid_argument);
  }
}

}  // namespace
}  // namespace dq::serve
