#include "serve/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "serve/failpoints.hpp"

namespace dq::serve {

namespace {

using campaign::JsonValue;

[[noreturn]] void corrupt(const std::string& what) {
  throw CheckpointError("corrupt checkpoint: " + what);
}

const JsonValue& need(const JsonValue& json, const char* key) {
  const JsonValue* v = json.find(key);
  if (v == nullptr) corrupt(std::string("missing field '") + key + "'");
  return *v;
}

}  // namespace

CheckpointState CheckpointState::from_json(const JsonValue& json) {
  try {
    if (json.kind() != JsonValue::Kind::kObject)
      corrupt("document is not an object");
    const JsonValue* format = json.find("format");
    if (format == nullptr || format->as_string() != "dq_serve_checkpoint")
      corrupt("not a dq serve checkpoint (missing format tag)");
    if (need(json, "version").as_uint() != kCheckpointVersion)
      corrupt("unsupported checkpoint version");

    CheckpointState state;
    const std::uint64_t num_hosts = need(json, "num_hosts").as_uint();
    if (num_hosts == 0 || num_hosts > UINT32_MAX)
      corrupt("num_hosts " + std::to_string(num_hosts) +
              " outside [1, 2^32)");
    state.num_hosts = static_cast<std::uint32_t>(num_hosts);
    state.flows_ingested = need(json, "flows_ingested").as_uint();
    state.last_time = need(json, "last_time").as_number();
    state.time_regressions = need(json, "time_regressions").as_uint();
    state.parse_errors = need(json, "parse_errors").as_uint();
    for (const JsonValue& s :
         need(json, "parse_error_samples").items())
      state.parse_error_samples.push_back(s.as_string());
    state.shed_flows = need(json, "shed_flows").as_uint();
    state.quarantine_events = need(json, "quarantine_events").as_uint();
    state.config = need(json, "quarantine_config");
    const JsonValue& labels = need(json, "label_time");
    if (labels.size() != state.num_hosts)
      corrupt("label_time length mismatch");
    state.label_time.reserve(state.num_hosts);
    for (const JsonValue& t : labels.items())
      state.label_time.push_back(t.as_number());
    state.hosts = quarantine::host_arrays_from_json(need(json, "hosts"));
    if (state.hosts.records.size() != state.num_hosts)
      corrupt("host state length mismatch");
    // Present only for shared-bitmap runs; the server validates it
    // against its own engine geometry on restore.
    if (const JsonValue* store = json.find("estimator_store"))
      state.store = quarantine::store_blocks_from_json(*store);
    return state;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // JSON type errors (as_uint on a string, …) from malformed input.
    corrupt(e.what());
  }
}

// Direct string emission: the per-host and per-label columns dominate
// checkpoint cost, and materializing a JsonValue node per value is ~10x
// the to_chars work.
std::string serialize_checkpoint(const CheckpointState& state) {
  std::string out;
  // ~16 bytes per host column entry across 14 columns.
  out.reserve(256 + state.label_time.size() * 4 +
              state.hosts.records.size() * 72);
  out += "{\"format\":\"dq_serve_checkpoint\",\"version\":";
  out += std::to_string(kCheckpointVersion);
  out += ",\"num_hosts\":";
  out += std::to_string(state.num_hosts);
  out += ",\"flows_ingested\":";
  out += std::to_string(state.flows_ingested);
  out += ",\"last_time\":";
  out += campaign::format_double(state.last_time);
  out += ",\"time_regressions\":";
  out += std::to_string(state.time_regressions);
  out += ",\"parse_errors\":";
  out += std::to_string(state.parse_errors);
  out += ",\"parse_error_samples\":";
  JsonValue samples = JsonValue::array();  // string escaping
  for (const std::string& s : state.parse_error_samples)
    samples.push_back(JsonValue::str(s));
  out += samples.dump();
  out += ",\"shed_flows\":";
  out += std::to_string(state.shed_flows);
  out += ",\"quarantine_events\":";
  out += std::to_string(state.quarantine_events);
  out += ",\"quarantine_config\":";
  out += state.config.dump();
  out += ",\"label_time\":[";
  bool first = true;
  for (const double t : state.label_time) {
    if (!first) out += ',';
    first = false;
    out += campaign::format_double(t);
  }
  out += "],\"hosts\":";
  quarantine::append_host_arrays_json(state.hosts, out);
  if (state.store) {
    out += ",\"estimator_store\":";
    quarantine::append_store_blocks_json(*state.store, out);
  }
  out += '}';
  return out;
}

void write_checkpoint_file(const std::string& path,
                           const CheckpointState& state) {
  std::string bytes = serialize_checkpoint(state);
  bytes += '\n';
  if (Failpoints::global().active() &&
      Failpoints::global().consume_torn_checkpoint())
    bytes.resize(bytes.size() / 2);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("checkpoint: cannot open " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
      throw std::runtime_error("checkpoint: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
}

CheckpointState load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw CheckpointError("cannot read checkpoint file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad())
    throw CheckpointError("error reading checkpoint file " + path);
  JsonValue json;
  try {
    json = JsonValue::parse(buffer.str());
  } catch (const std::exception& e) {
    throw CheckpointError("corrupt checkpoint " + path + ": " + e.what());
  }
  try {
    return CheckpointState::from_json(json);
  } catch (const CheckpointError& e) {
    throw CheckpointError(std::string(e.what()) + " (" + path + ")");
  }
}

}  // namespace dq::serve
