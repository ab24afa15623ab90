#include "quarantine/snapshot.hpp"

#include <charconv>
#include <functional>
#include <stdexcept>
#include <string>

namespace dq::quarantine {

namespace {

using campaign::JsonValue;

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("quarantine snapshot: " + what);
}

const JsonValue& field(const JsonValue& json, const char* key) {
  const JsonValue* v = json.find(key);
  if (v == nullptr) bad(std::string("missing '") + key + "'");
  return *v;
}

const JsonValue& column(const JsonValue& json, const char* key,
                        std::size_t n) {
  const JsonValue* col = json.find(key);
  if (col == nullptr || col->kind() != JsonValue::Kind::kArray)
    bad(std::string("missing column '") + key + "'");
  if (col->size() != n)
    bad(std::string("column '") + key + "' length mismatch");
  return *col;
}

// One encoder and one decoder per field type. Decoding rejects what
// the field cannot hold instead of truncating it, so every accepted
// value re-encodes to the bytes it was read from.

void append_value(std::string& out, std::uint64_t u) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), u);
  (void)ec;
  out.append(buf, end);
}
void append_value(std::string& out, std::uint32_t u) {
  append_value(out, std::uint64_t{u});
}
void append_value(std::string& out, bool b) { out += b ? '1' : '0'; }
void append_value(std::string& out, HostQState s) {
  append_value(out, std::uint64_t{static_cast<std::uint8_t>(s)});
}
void append_value(std::string& out, double v) {
  out += campaign::format_double(v);
}
/// Window indices are the one signed field: -1 ("no observation yet")
/// or a non-negative index.
void append_value(std::string& out, std::int64_t w) {
  if (w < 0)
    out += "-1";
  else
    append_value(out, static_cast<std::uint64_t>(w));
}

void read_value(const JsonValue& v, std::uint64_t& out, const char*) {
  out = v.as_uint();
}
void read_value(const JsonValue& v, std::uint32_t& out, const char* key) {
  const std::uint64_t u = v.as_uint();
  if (u > UINT32_MAX)
    bad(std::string(key) + " value " + std::to_string(u) +
        " exceeds 32 bits");
  out = static_cast<std::uint32_t>(u);
}
void read_value(const JsonValue& v, bool& out, const char* key) {
  const std::uint64_t u = v.as_uint();
  if (u > 1) bad(std::string(key) + " value out of range");
  out = u != 0;
}
void read_value(const JsonValue& v, HostQState& out, const char* key) {
  const std::uint64_t u = v.as_uint();
  if (u > static_cast<std::uint64_t>(HostQState::kQuarantined))
    bad(std::string(key) + " value out of range");
  out = static_cast<HostQState>(u);
}
void read_value(const JsonValue& v, double& out, const char*) {
  out = v.as_number();
}
void read_value(const JsonValue& v, std::int64_t& out, const char* key) {
  const double d = v.as_number();
  if (d == -1.0) {
    out = -1;
    return;
  }
  if (d < 0.0) bad(std::string(key) + " window index below -1");
  const std::uint64_t u = v.as_uint();
  if (u > static_cast<std::uint64_t>(INT64_MAX))
    bad(std::string(key) + " window index out of range");
  out = static_cast<std::int64_t>(u);
}

/// Emits `,"key":[get(items[0]),...]` — one column; `get` is a member
/// pointer or std::identity.
template <typename Vec, typename Get>
void append_column(std::string& out, const char* key, const Vec& items,
                   Get get) {
  out += ",\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ',';
    append_value(out, std::invoke(get, items[i]));
  }
  out += ']';
}

/// Inverse of append_column into `items`, already sized to the column.
template <typename Vec, typename Get>
void read_column(const JsonValue& json, const char* key, Vec& items,
                 Get get) {
  const JsonValue& col = column(json, key, items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    read_value(col.items()[i], std::invoke(get, items[i]), key);
}

}  // namespace

JsonValue config_to_json(const QuarantineConfig& config) {
  JsonValue d = JsonValue::object();
  d.set("window", JsonValue::number(config.detector.window));
  d.set("contact_rate_threshold",
        JsonValue::number(config.detector.contact_rate_threshold));
  d.set("distinct_dest_threshold",
        JsonValue::number(config.detector.distinct_dest_threshold));
  d.set("failure_ratio_threshold",
        JsonValue::number(config.detector.failure_ratio_threshold));
  d.set("failure_min_attempts",
        JsonValue::integer(config.detector.failure_min_attempts));

  JsonValue p = JsonValue::object();
  p.set("strikes_to_quarantine",
        JsonValue::integer(config.policy.strikes_to_quarantine));
  p.set("base_period", JsonValue::number(config.policy.base_period));
  p.set("escalation", JsonValue::number(config.policy.escalation));
  p.set("max_period", JsonValue::number(config.policy.max_period));
  p.set("treatment",
        JsonValue::str(config.policy.treatment == Treatment::kThrottle
                           ? "throttle"
                           : "drop_all"));
  p.set("throttle_rate", JsonValue::number(config.policy.throttle_rate));

  // The estimator backend is part of the config identity: restoring a
  // compact snapshot into an exact engine (or under different pool
  // geometry) must fail the config comparison, not silently diverge.
  JsonValue e = JsonValue::object();
  if (config.estimator_backend == EstimatorBackend::kSharedBitmap) {
    e.set("backend", JsonValue::str("shared_bitmap"));
    e.set("block_hosts", JsonValue::integer(config.compact.block_hosts));
    e.set("pool_bits_per_host",
          JsonValue::integer(config.compact.pool_bits_per_host));
    e.set("virtual_bits", JsonValue::integer(config.compact.virtual_bits));
    e.set("seed", JsonValue::integer(config.compact.seed));
  } else {
    e.set("backend", JsonValue::str("exact"));
  }

  JsonValue out = JsonValue::object();
  out.set("enabled", JsonValue::boolean(config.enabled));
  out.set("start_on_detection",
          JsonValue::boolean(config.start_on_detection));
  out.set("detector", std::move(d));
  out.set("policy", std::move(p));
  out.set("estimator", std::move(e));
  return out;
}

void append_host_arrays_json(const HostArrays& hosts, std::string& out) {
  const std::vector<HostRecord>& r = hosts.records;
  const std::vector<DetectorState>& d = hosts.detectors;
  if (r.size() != d.size()) bad("record/detector array size mismatch");
  out += "{\"num_hosts\":";
  append_value(out, std::uint64_t{r.size()});
  append_column(out, "state", r, &HostRecord::state);
  append_column(out, "strikes", r, &HostRecord::strikes);
  append_column(out, "offenses", r, &HostRecord::offenses);
  append_column(out, "first_suspected", r, &HostRecord::first_suspected);
  append_column(out, "first_quarantined", r, &HostRecord::first_quarantined);
  append_column(out, "quarantine_start", r, &HostRecord::quarantine_start);
  append_column(out, "release_time", r, &HostRecord::release_time);
  append_column(out, "quarantine_time", r, &HostRecord::quarantine_time);
  append_column(out, "det_window", d, &DetectorState::window_index);
  append_column(out, "det_contacts", d, &DetectorState::contacts);
  append_column(out, "det_failures", d, &DetectorState::failures);
  append_column(out, "det_sketch", d, &DetectorState::dest_sketch);
  append_column(out, "det_flagged", d, &DetectorState::flagged);
  out += '}';
}

HostArrays host_arrays_from_json(const JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject) bad("host arrays not an object");
  // Size by an array actually present, so a forged num_hosts cannot
  // drive the allocation.
  const std::size_t n =
      column(json, "state", field(json, "num_hosts").as_uint()).size();
  HostArrays out;
  std::vector<HostRecord>& r = out.records;
  std::vector<DetectorState>& d = out.detectors;
  r.resize(n);
  d.resize(n);
  read_column(json, "state", r, &HostRecord::state);
  read_column(json, "strikes", r, &HostRecord::strikes);
  read_column(json, "offenses", r, &HostRecord::offenses);
  read_column(json, "first_suspected", r, &HostRecord::first_suspected);
  read_column(json, "first_quarantined", r, &HostRecord::first_quarantined);
  read_column(json, "quarantine_start", r, &HostRecord::quarantine_start);
  read_column(json, "release_time", r, &HostRecord::release_time);
  read_column(json, "quarantine_time", r, &HostRecord::quarantine_time);
  read_column(json, "det_window", d, &DetectorState::window_index);
  read_column(json, "det_contacts", d, &DetectorState::contacts);
  read_column(json, "det_failures", d, &DetectorState::failures);
  read_column(json, "det_sketch", d, &DetectorState::dest_sketch);
  read_column(json, "det_flagged", d, &DetectorState::flagged);
  return out;
}

void StoreBlocks::push_block(const CompactEstimatorStore& store,
                             std::size_t block) {
  words_per_block = store.words_per_block();
  window.push_back(store.block_window(block));
  const std::uint64_t* words = store.block_words(block);
  pool.insert(pool.end(), words, words + words_per_block);
}

void StoreBlocks::restore_block(std::size_t i, CompactEstimatorStore& store,
                                std::size_t block) const {
  const auto fail = [i](const std::string& what) {
    bad("estimator store block " + std::to_string(i) + ": " + what);
  };
  if (words_per_block != store.words_per_block())
    fail("words_per_block mismatch (pool geometry)");
  if (i >= num_blocks() || pool.size() != num_blocks() * words_per_block)
    fail("window/pool length mismatch");
  try {
    store.restore_block(block, window[i], pool.data() + i * words_per_block);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

void append_store_blocks_json(const StoreBlocks& blocks, std::string& out) {
  out += "{\"num_blocks\":";
  append_value(out, std::uint64_t{blocks.num_blocks()});
  out += ",\"words_per_block\":";
  append_value(out, std::uint64_t{blocks.words_per_block});
  append_column(out, "window", blocks.window, std::identity{});
  append_column(out, "pool", blocks.pool, std::identity{});
  out += '}';
}

StoreBlocks store_blocks_from_json(const JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject)
    bad("estimator store not an object");
  const std::uint64_t num_blocks = field(json, "num_blocks").as_uint();
  StoreBlocks out;
  out.words_per_block = field(json, "words_per_block").as_uint();
  out.window.resize(column(json, "window", num_blocks).size());
  // num_blocks now equals a real array length, so the product cannot
  // overflow once words_per_block is bounded by the pool's length.
  const std::size_t pool_size = field(json, "pool").size();
  if (out.words_per_block > pool_size ||
      pool_size != num_blocks * out.words_per_block)
    bad("estimator store pool length is not num_blocks × words_per_block");
  out.pool.resize(pool_size);
  read_column(json, "window", out.window, std::identity{});
  read_column(json, "pool", out.pool, std::identity{});
  return out;
}

JsonValue engine_to_json(const QuarantineEngine& engine) {
  const std::size_t n = engine.num_hosts();
  HostArrays hosts;
  hosts.records.resize(n);
  hosts.detectors.resize(n);
  for (std::size_t h = 0; h < n; ++h) {
    const auto host = static_cast<std::uint32_t>(h);
    hosts.records[h] = engine.record(host);
    hosts.detectors[h] = engine.detector_state(host);
  }
  std::string out = "{\"version\":";
  append_value(out, kSnapshotVersion);
  out += ",\"config\":";
  out += config_to_json(engine.config()).dump();
  out += ",\"quarantine_events\":";
  append_value(out, engine.quarantine_events());
  out += ",\"hosts\":";
  append_host_arrays_json(hosts, out);
  if (const CompactEstimatorStore* store = engine.compact_store()) {
    StoreBlocks blocks;
    for (std::size_t b = 0; b < store->num_blocks(); ++b)
      blocks.push_block(*store, b);
    out += ",\"store\":";
    append_store_blocks_json(blocks, out);
  }
  out += '}';
  return JsonValue::parse(out);
}

void restore_engine(QuarantineEngine& engine, const JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject) bad("snapshot not an object");
  const JsonValue* version = json.find("version");
  if (version == nullptr)
    bad("missing schema version (pre-v2 snapshot?)");
  if (version->as_uint() != kSnapshotVersion)
    bad("unsupported schema version " +
        std::to_string(version->as_uint()) + " (expected " +
        std::to_string(kSnapshotVersion) + ")");
  const JsonValue& config = field(json, "config");
  const std::uint64_t events = field(json, "quarantine_events").as_uint();
  if (config.dump() != config_to_json(engine.config()).dump())
    bad("config mismatch (snapshot taken under different settings)");
  const HostArrays hosts = host_arrays_from_json(field(json, "hosts"));
  if (hosts.records.size() != engine.num_hosts())
    bad("num_hosts mismatch");
  // Block pools first: compact per-host window indices restore
  // relative to their block's window.
  if (CompactEstimatorStore* store = engine.compact_store()) {
    const JsonValue* section = json.find("store");
    if (section == nullptr)
      bad("shared_bitmap engine but snapshot has no 'store' section");
    const StoreBlocks blocks = store_blocks_from_json(*section);
    if (blocks.num_blocks() != store->num_blocks())
      bad("estimator store block count mismatch");
    for (std::size_t b = 0; b < blocks.num_blocks(); ++b)
      blocks.restore_block(b, *store, b);
  } else if (json.find("store") != nullptr) {
    bad("snapshot has a 'store' section but the engine is exact");
  }
  for (std::size_t h = 0; h < hosts.records.size(); ++h)
    engine.restore_host(static_cast<std::uint32_t>(h), hosts.records[h],
                        hosts.detectors[h]);
  engine.add_quarantine_events(events);
}

}  // namespace dq::quarantine
