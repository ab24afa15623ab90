#include "quarantine/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "quarantine/engine.hpp"
#include "stats/hash.hpp"

namespace dq::quarantine {
namespace {

QuarantineConfig make_config() {
  QuarantineConfig c;
  c.enabled = true;
  c.detector.window = 5.0;
  c.detector.contact_rate_threshold = 6.0;
  c.detector.distinct_dest_threshold = 5.0;
  c.detector.failure_ratio_threshold = 0.6;
  c.detector.failure_min_attempts = 4;
  c.policy.strikes_to_quarantine = 2;
  c.policy.base_period = 30.0;
  c.policy.escalation = 2.0;
  c.policy.max_period = 240.0;
  return c;
}

struct SynthFlow {
  double time;
  std::uint32_t host;
  std::uint64_t dest;
  bool failed;
};

/// Deterministic synthetic stream: flow i is a pure function of
/// (seed, i). A contiguous low block of "worm" hosts scans random
/// destinations with a high failure rate; the rest revisit a small
/// per-host pool. Mirrors serve::SyntheticFlowSource so the engine sees
/// realistic state churn (strikes, quarantines, escalations, releases).
SynthFlow flow_at(std::uint64_t i, std::uint32_t hosts = 96,
                  std::uint64_t seed = 42) {
  const std::uint64_t r0 = mix64(seed ^ (i * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t r1 = mix64(r0 ^ 0xd1b54a32d192ed03ULL);
  const std::uint64_t r2 = mix64(r1 ^ 0x8cb92ba72f3d8dd7ULL);
  SynthFlow f;
  f.host = static_cast<std::uint32_t>(r0 % hosts);
  const bool worm = f.host < hosts / 8;
  f.time = static_cast<double>(i) * 0.05;
  f.dest = worm ? r1 : static_cast<std::uint64_t>(f.host) * 16 + r1 % 16;
  const double u = static_cast<double>(r2 >> 11) * 0x1.0p-53;
  f.failed = u < (worm ? 0.8 : 0.02);
  return f;
}

void feed(QuarantineEngine& e, std::uint64_t from, std::uint64_t to) {
  for (std::uint64_t i = from; i < to; ++i) {
    const SynthFlow f = flow_at(i);
    e.advance_to(f.time);
    e.observe(f.host, f.dest, f.time, f.failed);
  }
}

void expect_records_equal(const QuarantineEngine& a,
                          const QuarantineEngine& b) {
  ASSERT_EQ(a.num_hosts(), b.num_hosts());
  for (std::uint32_t h = 0; h < a.num_hosts(); ++h) {
    const HostRecord& ra = a.record(h);
    const HostRecord& rb = b.record(h);
    EXPECT_EQ(ra.state, rb.state) << "host " << h;
    EXPECT_EQ(ra.strikes, rb.strikes) << "host " << h;
    EXPECT_EQ(ra.offenses, rb.offenses) << "host " << h;
    EXPECT_EQ(ra.first_suspected, rb.first_suspected) << "host " << h;
    EXPECT_EQ(ra.first_quarantined, rb.first_quarantined) << "host " << h;
    EXPECT_EQ(ra.quarantine_start, rb.quarantine_start) << "host " << h;
    EXPECT_EQ(ra.release_time, rb.release_time) << "host " << h;
    EXPECT_EQ(ra.quarantine_time, rb.quarantine_time) << "host " << h;
    const DetectorState da = a.detector_state(h);
    const DetectorState db = b.detector_state(h);
    EXPECT_EQ(da.window_index, db.window_index) << "host " << h;
    EXPECT_EQ(da.contacts, db.contacts) << "host " << h;
    EXPECT_EQ(da.failures, db.failures) << "host " << h;
    EXPECT_EQ(da.dest_sketch, db.dest_sketch) << "host " << h;
    EXPECT_EQ(da.flagged, db.flagged) << "host " << h;
  }
}

TEST(QuarantineSnapshot, RestoredEngineReplaysIdenticallyFromAnyPrefix) {
  constexpr std::uint64_t kFlows = 30'000;
  QuarantineEngine uninterrupted(96, make_config());
  feed(uninterrupted, 0, kFlows);
  ASSERT_GT(uninterrupted.quarantine_events(), 0u);  // non-trivial stream

  for (const std::uint64_t cut : {1ULL, 500ULL, 7'321ULL, 29'999ULL}) {
    QuarantineEngine prefix(96, make_config());
    feed(prefix, 0, cut);
    const campaign::JsonValue snap = engine_to_json(prefix);

    QuarantineEngine resumed(96, make_config());
    restore_engine(resumed, snap);
    expect_records_equal(prefix, resumed);
    EXPECT_EQ(resumed.quarantine_events(), prefix.quarantine_events());
    EXPECT_EQ(resumed.currently_quarantined(),
              prefix.currently_quarantined());

    feed(resumed, cut, kFlows);
    expect_records_equal(uninterrupted, resumed);
    EXPECT_EQ(resumed.quarantine_events(),
              uninterrupted.quarantine_events());

    // Reports are bit-identical too: same records, same accumulation
    // order (host id order), same event totals.
    std::vector<double> labels(96, -1.0);
    for (std::uint32_t h = 0; h < 96 / 8; ++h) labels[h] = 0.0;
    const double now = flow_at(kFlows - 1).time;
    const QuarantineReport ru = uninterrupted.report(labels, now);
    const QuarantineReport rr = resumed.report(labels, now);
    EXPECT_EQ(ru.detected_targets, rr.detected_targets);
    EXPECT_EQ(ru.mean_detection_latency, rr.mean_detection_latency);
    EXPECT_EQ(ru.false_positive_hosts, rr.false_positive_hosts);
    EXPECT_EQ(ru.benign_quarantine_time, rr.benign_quarantine_time);
    EXPECT_EQ(ru.target_quarantine_time, rr.target_quarantine_time);
    EXPECT_EQ(ru.quarantine_events, rr.quarantine_events);
  }
}

TEST(QuarantineSnapshot, SnapshotOfRestoredEngineIsByteIdentical) {
  QuarantineEngine e(96, make_config());
  feed(e, 0, 12'000);
  const std::string bytes = engine_to_json(e).dump();

  QuarantineEngine restored(96, make_config());
  restore_engine(restored, engine_to_json(e));
  EXPECT_EQ(engine_to_json(restored).dump(), bytes);
}

std::string host_arrays_bytes(const HostArrays& hosts) {
  std::string out;
  append_host_arrays_json(hosts, out);
  return out;
}

TEST(QuarantineSnapshot, HostArraysRoundTripPreservesFullSketchPrecision) {
  HostArrays hosts;
  hosts.records.resize(3);
  hosts.detectors.resize(3);
  std::vector<HostRecord>& records = hosts.records;
  std::vector<DetectorState>& detectors = hosts.detectors;
  records[1].state = HostQState::kQuarantined;
  records[1].strikes = 2;
  records[1].offenses = 3;
  records[1].first_suspected = 1.25;
  records[1].first_quarantined = 2.5;
  records[1].quarantine_start = 100.125;
  records[1].release_time = 340.125;
  records[2].state = HostQState::kSuspected;
  records[2].quarantine_time = 0.1;  // not exactly representable
  detectors[0].window_index = -1;    // never observed
  detectors[1].window_index = 7;
  detectors[1].contacts = 19;
  detectors[1].failures = 11;
  detectors[1].dest_sketch = 0xffffffffffffffffULL;  // needs 64 bits
  detectors[1].flagged = true;

  const std::string bytes = host_arrays_bytes(hosts);
  // The emitter writes canonical JSON: the generic tree reproduces it.
  EXPECT_EQ(campaign::JsonValue::parse(bytes).dump(), bytes);
  const HostArrays back =
      host_arrays_from_json(campaign::JsonValue::parse(bytes));
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records[1].state, HostQState::kQuarantined);
  EXPECT_EQ(back.records[1].release_time, 340.125);
  EXPECT_EQ(back.records[2].quarantine_time, 0.1);
  EXPECT_EQ(back.detectors[0].window_index, -1);
  EXPECT_EQ(back.detectors[1].dest_sketch, 0xffffffffffffffffULL);
  EXPECT_TRUE(back.detectors[1].flagged);
  // And the encoding itself round-trips byte-for-byte.
  EXPECT_EQ(host_arrays_bytes(back), bytes);
}

/// `json` with column `key` replaced by the single value `value`.
campaign::JsonValue with_single(campaign::JsonValue json, const char* key,
                                campaign::JsonValue value) {
  campaign::JsonValue col = campaign::JsonValue::array();
  col.push_back(std::move(value));
  json.set(key, std::move(col));
  return json;
}

TEST(QuarantineSnapshot, RejectsMalformedInput) {
  QuarantineEngine fresh(4, make_config());

  EXPECT_THROW(restore_engine(fresh, campaign::JsonValue::number(1.0)),
               std::invalid_argument);
  EXPECT_THROW(restore_engine(fresh, campaign::JsonValue::object()),
               std::invalid_argument);

  QuarantineEngine donor(4, make_config());
  // Wrong host count.
  {
    QuarantineEngine bigger(8, make_config());
    EXPECT_THROW(restore_engine(bigger, engine_to_json(donor)),
                 std::invalid_argument);
  }
  // Wrong config: thresholds differ, resuming would silently diverge.
  {
    QuarantineConfig other = make_config();
    other.policy.base_period = 60.0;
    QuarantineEngine mismatched(4, other);
    EXPECT_THROW(restore_engine(mismatched, engine_to_json(donor)),
                 std::invalid_argument);
  }
  // Column arrays of unequal length.
  {
    HostArrays uneven;
    uneven.records.resize(2);
    uneven.detectors.resize(3);
    EXPECT_THROW(host_arrays_bytes(uneven), std::invalid_argument);
  }
  HostArrays one;
  one.records.resize(1);
  one.detectors.resize(1);
  const campaign::JsonValue good =
      campaign::JsonValue::parse(host_arrays_bytes(one));
  ASSERT_NO_THROW(host_arrays_from_json(good));
  // Out-of-range state enum.
  EXPECT_THROW(host_arrays_from_json(with_single(
                   good, "state", campaign::JsonValue::integer(9))),
               std::invalid_argument);
  // 32-bit counters must not wrap: 2^32 + 1 would read back as 1.
  for (const char* key :
       {"strikes", "offenses", "det_contacts", "det_failures"})
    EXPECT_THROW(host_arrays_from_json(with_single(
                     good, key, campaign::JsonValue::integer(4294967297ULL))),
                 std::invalid_argument)
        << key;
  // Window indices: -1 or a non-negative int64; -5 used to read as -1
  // and 2^63 as a negative index.
  for (const campaign::JsonValue& w :
       {campaign::JsonValue::number(-5.0), campaign::JsonValue::number(-0.5),
        campaign::JsonValue::integer(1ULL << 63)})
    EXPECT_THROW(
        host_arrays_from_json(with_single(good, "det_window", w)),
        std::invalid_argument)
        << w.dump();
  // The flagged latch is 0 or 1.
  EXPECT_THROW(host_arrays_from_json(with_single(
                   good, "det_flagged", campaign::JsonValue::integer(2))),
               std::invalid_argument);
  // Declared num_hosts disagreeing with the column lengths.
  {
    campaign::JsonValue big = good;
    big.set("num_hosts", campaign::JsonValue::integer(4294967297ULL));
    EXPECT_THROW(host_arrays_from_json(big), std::invalid_argument);
  }

  // Store section: a well-formed document re-serializes to its bytes.
  const std::string store_bytes =
      R"({"num_blocks":2,"words_per_block":2,"window":[-1,3],)"
      R"("pool":[0,0,18446744073709551615,1]})";
  {
    const StoreBlocks blocks =
        store_blocks_from_json(campaign::JsonValue::parse(store_bytes));
    std::string again;
    append_store_blocks_json(blocks, again);
    EXPECT_EQ(again, store_bytes);
  }
  for (const char* bad_store : {
           // Block window below -1.
           R"({"num_blocks":1,"words_per_block":2,"window":[-5],"pool":[0,0]})",
           // Declared sizes disagree with the array lengths.
           R"({"num_blocks":2,"words_per_block":2,"window":[-1],"pool":[0,0]})",
           R"({"num_blocks":1,"words_per_block":2,"window":[-1],"pool":[0]})",
           // num_blocks × words_per_block wraps to the empty pool's 0.
           R"({"num_blocks":2,"words_per_block":9223372036854775808,)"
           R"("window":[-1,-1],"pool":[]})",
       })
    EXPECT_THROW(store_blocks_from_json(campaign::JsonValue::parse(bad_store)),
                 std::invalid_argument)
        << bad_store;
}

// ---------------------------------------------------------------------
// Shared-bitmap backend: the v2 snapshot carries the block pools in a
// "store" section, restored before per-host state (host window
// distances are encoded relative to their block's window).

QuarantineConfig make_compact_config() {
  QuarantineConfig c = make_config();
  // Hotter failure gate than make_config: the synthetic stream spreads
  // flows so thin (~1 per host-window) that the exact config barely
  // quarantines, and the pool-confirmation gate needs several strike
  // windows to guarantee churn worth snapshotting.
  c.detector.failure_min_attempts = 3;
  c.detector.failure_ratio_threshold = 0.5;
  c.estimator_backend = EstimatorBackend::kSharedBitmap;
  c.compact.block_hosts = 16;  // 96 hosts -> 6 blocks
  c.compact.pool_bits_per_host = 16;
  c.compact.virtual_bits = 64;
  return c;
}

/// Copy of `obj` minus one key (JsonValue has no erase).
campaign::JsonValue without_key(const campaign::JsonValue& obj,
                                std::string_view key) {
  campaign::JsonValue out = campaign::JsonValue::object();
  for (const auto& [k, v] : obj.members())
    if (k != key) out.set(k, v);
  return out;
}

TEST(QuarantineSnapshot, CompactEngineReplaysIdenticallyFromAnyPrefix) {
  constexpr std::uint64_t kFlows = 30'000;
  QuarantineEngine uninterrupted(96, make_compact_config());
  feed(uninterrupted, 0, kFlows);
  ASSERT_GT(uninterrupted.quarantine_events(), 0u);

  for (const std::uint64_t cut : {1ULL, 500ULL, 7'321ULL, 29'999ULL}) {
    QuarantineEngine prefix(96, make_compact_config());
    feed(prefix, 0, cut);
    const campaign::JsonValue snap = engine_to_json(prefix);

    QuarantineEngine resumed(96, make_compact_config());
    restore_engine(resumed, snap);
    expect_records_equal(prefix, resumed);
    EXPECT_EQ(resumed.quarantine_events(), prefix.quarantine_events());

    // The restored pools must be bit-identical, not just the visible
    // per-host states: any lost pool bit would skew later estimates.
    const CompactEstimatorStore* sp = prefix.compact_store();
    const CompactEstimatorStore* sr = resumed.compact_store();
    ASSERT_NE(sp, nullptr);
    ASSERT_NE(sr, nullptr);
    for (std::size_t b = 0; b < sp->num_blocks(); ++b) {
      EXPECT_EQ(sp->block_window(b), sr->block_window(b)) << "block " << b;
      const std::uint64_t* wp = sp->block_words(b);
      const std::uint64_t* wr = sr->block_words(b);
      for (std::size_t w = 0; w < sp->words_per_block(); ++w)
        EXPECT_EQ(wp[w], wr[w]) << "block " << b << " word " << w;
    }

    feed(resumed, cut, kFlows);
    expect_records_equal(uninterrupted, resumed);
    EXPECT_EQ(resumed.quarantine_events(),
              uninterrupted.quarantine_events());
  }
}

TEST(QuarantineSnapshot, CompactSnapshotOfRestoredEngineIsByteIdentical) {
  QuarantineEngine e(96, make_compact_config());
  feed(e, 0, 12'000);
  const std::string bytes = engine_to_json(e).dump();
  EXPECT_NE(bytes.find("\"store\""), std::string::npos);
  EXPECT_NE(bytes.find("\"version\":2"), std::string::npos);

  QuarantineEngine restored(96, make_compact_config());
  restore_engine(restored, engine_to_json(e));
  EXPECT_EQ(engine_to_json(restored).dump(), bytes);
}

TEST(QuarantineSnapshot, SnapshotVersionIsRequiredAndChecked) {
  QuarantineEngine donor(96, make_config());
  feed(donor, 0, 100);
  const campaign::JsonValue snap = engine_to_json(donor);

  {
    QuarantineEngine fresh(96, make_config());
    try {
      restore_engine(fresh, without_key(snap, "version"));
      FAIL() << "missing version accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("pre-v2"), std::string::npos);
    }
  }
  for (const double bad : {1.0, 3.0, 99.0}) {
    campaign::JsonValue wrong = snap;
    wrong.set("version", campaign::JsonValue::number(bad));
    QuarantineEngine fresh(96, make_config());
    EXPECT_THROW(restore_engine(fresh, wrong), std::invalid_argument);
  }
}

TEST(QuarantineSnapshot, BackendMismatchBetweenSnapshotAndEngineRejected) {
  QuarantineEngine exact(96, make_config());
  QuarantineEngine compact(96, make_compact_config());
  feed(exact, 0, 100);
  feed(compact, 0, 100);

  // Config dumps differ (estimator section), so restore must refuse in
  // both directions rather than silently dropping or inventing pools.
  {
    QuarantineEngine fresh(96, make_compact_config());
    EXPECT_THROW(restore_engine(fresh, engine_to_json(exact)),
                 std::invalid_argument);
  }
  {
    QuarantineEngine fresh(96, make_config());
    EXPECT_THROW(restore_engine(fresh, engine_to_json(compact)),
                 std::invalid_argument);
  }
}

TEST(QuarantineSnapshot, CompactRestoreRejectsCorruptStore) {
  // 6 bits/host over 16-host blocks: 96-bit pools, so each pool's
  // second word has 32 permanently-zero tail bits to corrupt.
  QuarantineConfig cfg = make_compact_config();
  cfg.compact.pool_bits_per_host = 6;
  QuarantineEngine donor(96, cfg);
  feed(donor, 0, 5'000);
  const campaign::JsonValue snap = engine_to_json(donor);
  const campaign::JsonValue& store = snap.at("store");

  // Missing store section entirely.
  {
    QuarantineEngine fresh(96, cfg);
    EXPECT_THROW(restore_engine(fresh, without_key(snap, "store")),
                 std::invalid_argument);
  }
  // Truncated pool array (one word short).
  {
    campaign::JsonValue pool = campaign::JsonValue::array();
    const auto& words = store.at("pool").items();
    for (std::size_t i = 0; i + 1 < words.size(); ++i)
      pool.push_back(words[i]);
    campaign::JsonValue bad_store = without_key(store, "pool");
    bad_store.set("pool", std::move(pool));
    campaign::JsonValue bad = snap;
    bad.set("store", std::move(bad_store));
    QuarantineEngine fresh(96, cfg);
    EXPECT_THROW(restore_engine(fresh, bad), std::invalid_argument);
  }
  // Stray bits past the pool tail: 96-bit pools leave the top 32 bits
  // of each pool's last word permanently zero.
  {
    campaign::JsonValue pool = campaign::JsonValue::array();
    const auto& words = store.at("pool").items();
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (i == 1) {  // block 0, attempts pool, tail word
        pool.push_back(campaign::JsonValue::integer(
            words[i].as_uint() | (1ULL << 63)));
      } else {
        pool.push_back(words[i]);
      }
    }
    campaign::JsonValue bad_store = without_key(store, "pool");
    bad_store.set("pool", std::move(pool));
    campaign::JsonValue bad = snap;
    bad.set("store", std::move(bad_store));
    QuarantineEngine fresh(96, cfg);
    try {
      restore_engine(fresh, bad);
      FAIL() << "stray tail bits accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("block 0"), std::string::npos);
    }
  }
  // Nonzero pool bits in an untouched (window -1) block: snapshot a
  // fresh engine (every block untouched) and flip one pool bit on.
  {
    QuarantineEngine untouched(96, cfg);
    campaign::JsonValue bad = engine_to_json(untouched);
    const campaign::JsonValue& zero_store = bad.at("store");
    ASSERT_LT(zero_store.at("window").items()[0].as_number(), 0.0);
    campaign::JsonValue pool = campaign::JsonValue::array();
    pool.push_back(campaign::JsonValue::integer(1));  // block 0, word 0
    for (std::size_t i = 1; i < zero_store.at("pool").size(); ++i)
      pool.push_back(campaign::JsonValue::integer(0));
    campaign::JsonValue bad_store = without_key(zero_store, "pool");
    bad_store.set("pool", std::move(pool));
    bad.set("store", std::move(bad_store));
    QuarantineEngine fresh(96, cfg);
    EXPECT_THROW(restore_engine(fresh, bad), std::invalid_argument);
  }
}

TEST(QuarantineSnapshot, CompactRestoreHostValidatesInterchangeState) {
  QuarantineConfig cfg = make_compact_config();
  QuarantineEngine e(96, cfg);
  e.observe(0, 7, 1.0, false);

  // The compact backend cannot reconstruct a private 64-bit sketch, so
  // host interchange states always carry dest_sketch = 0; a nonzero
  // sketch means the snapshot came from an exact engine.
  DetectorState bad_sketch = e.detector_state(1);
  bad_sketch.dest_sketch = 0x1;
  EXPECT_THROW(e.restore_host(1, HostRecord{}, bad_sketch),
               std::invalid_argument);

  // A host cannot be ahead of its block's window.
  DetectorState future = e.detector_state(1);
  future.window_index = 1'000;
  future.contacts = 1;
  EXPECT_THROW(e.restore_host(1, HostRecord{}, future),
               std::invalid_argument);
}

TEST(QuarantineSnapshot, RestoreHostRefusesAlreadyQuarantinedTarget) {
  QuarantineEngine e(4, make_config());
  // Two over-threshold windows: strike, strike, quarantine.
  for (int i = 0; i < 8; ++i)
    e.observe(0, static_cast<std::uint64_t>(i), 1.0, false);
  for (int i = 0; i < 8; ++i)
    e.observe(0, static_cast<std::uint64_t>(i), 6.0, false);
  ASSERT_TRUE(e.quarantined(0));
  EXPECT_THROW(e.restore_host(0, HostRecord{}, DetectorState{}),
               std::logic_error);
}

}  // namespace
}  // namespace dq::quarantine
