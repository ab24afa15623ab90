// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--tiny] [--corrupt OUTPUT]
//             [--commit SHA] [--source-digest HEX] [--command TEXT]
//
// Prints human-readable notes, one metadata JSON line, and as its last
// line one result JSON object: {"correct","attempted","failed","metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). With --trace 1 it also writes the span file
// DIR/spans-NAME-seedN.ndjson. Exits 1 when an output check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, every workload (BENCHMARK.json "end_to_end").
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"time_to_result_s", "s"},
    {"work_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

/// Per-layer metrics (BENCHMARK.json "per_layer"). A workload that does
/// not exercise a layer reports 0 for it.
const std::vector<MetricDef> kPerLayer = {
    {"latency.p50_ms", "ms"},
    {"latency.p99_ms", "ms"},
    {"graph.build_s", "s"},
    {"routing.build_s", "s"},
    {"routing.pairs", "count"},
    {"routing.table_mib", "MiB"},
    {"engine.run_s", "s"},
    {"engine.run_max_s", "s"},
    {"engine.self_s", "s"},
    {"engine.emit_s", "s"},
    {"engine.apply_s", "s"},
    {"engine.merge_s", "s"},
    {"engine.record_s", "s"},
    {"engine.ticks", "count"},
    {"engine.packets_forwarded", "count"},
    {"engine.link_hops", "count"},
    {"engine.queue_events", "count"},
    {"engine.scan_packets", "count"},
    {"engine.ever_infected", "count"},
    {"serve.setup_s", "s"},
    {"serve.read_parse_s", "s"},
    {"loadgen.idle_s", "s"},
    {"loadgen.late_p99_ms", "ms"},
    {"parse.ns_per_line", "ns"},
    {"observe.ns_per_flow", "ns"},
    {"observe_exact.ns_per_flow", "ns"},
    {"observe_shared_bitmap.ns_per_flow", "ns"},
    {"format.ns_per_line", "ns"},
    {"sink.s", "s"},
    {"sink.writes", "count"},
    {"sink.bytes", "bytes"},
    {"router.self_s", "s"},
    {"worker.busy_frac_max", "frac"},
    {"worker.busy_frac_min", "frac"},
    {"queue.router_stalls", "count"},
    {"queue.worker_stalls", "count"},
    {"checkpoint.s", "s"},
    {"checkpoint.count", "count"},
    {"checkpoint.bytes", "bytes"},
    {"quarantine.detected_targets", "count"},
    {"quarantine.false_positive_hosts", "count"},
    {"remainder_s", "s"},
    {"trace.untraced_s", "s"},
    {"trace.traced_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_frac", "frac"},
};

/// Rows that, with remainder_s, add up to trace.traced_s.
const std::vector<const char*> kAccountingRows = {
    "graph.build_s",  "routing.build_s",    "engine.emit_s",
    "engine.apply_s", "engine.merge_s",     "engine.record_s",
    "engine.self_s",  "serve.setup_s",      "serve.read_parse_s",
    "sink.s",         "checkpoint.s",       "router.self_s",
    "remainder_s",
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim-routed|sim-scale|serve-ndjson|serve-live --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--tiny] "
               "[--corrupt OUTPUT]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string commit = "unknown", source_digest = "unknown", command;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed")
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds")
      o.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--workdir") o.workdir = value();
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--corrupt") o.corrupt = value();
    else if (a == "--commit") commit = value();
    else if (a == "--source-digest") source_digest = value();
    else if (a == "--command") command = value();
    else usage("unknown argument " + a);
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  o.nproc = nproc();
  std::filesystem::create_directories(o.workdir);

  Report report;
  Tracer tracer;
  try {
    if (o.workload == "sim-routed") run_sim_routed(o, report, tracer);
    else if (o.workload == "sim-scale") run_sim_scale(o, report, tracer);
    else if (o.workload == "serve-ndjson") run_serve_ndjson(o, report, tracer);
    else if (o.workload == "serve-live") run_serve_live(o, report, tracer);
    else usage("unknown workload '" + o.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::string meta =
      "{\"meta\":{\"workload\":\"" + json_escape(o.workload) +
      "\",\"seed\":" + std::to_string(o.seed) +
      ",\"seconds\":" + num(o.seconds) + ",\"trace\":" + (o.trace ? "1" : "0") +
      ",\"commit\":\"" + json_escape(commit) + "\",\"source_digest\":\"" +
      json_escape(source_digest) + "\",\"compiler\":\"" +
      json_escape("g++ " __VERSION__) + "\",\"build_type\":\"" +
      PERFBENCH_BUILD_TYPE + "\",\"nproc\":" + std::to_string(o.nproc) +
      ",\"command\":\"" + json_escape(command) + "\"}}";

  // Human-readable section: every metric by name and unit.
  std::printf("== perfbench %s seed %llu (%s)\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  for (const MetricDef& m : kEndToEnd)
    std::printf("%-36s %-14s %s\n", m.name, fmt(report.e2e[m.name]).c_str(),
                m.unit);
  for (const Report::Shown& m : report.shown)
    std::printf("%-36s %-14s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  std::printf("%-36s %-14s %s\n", "failed_frac",
              fmt(report.attempted > 0
                      ? static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted)
                      : 1.0)
                  .c_str(),
              "1");
  for (const std::string& n : report.notes) std::printf("  %s\n", n.c_str());
  if (o.trace) {
    double sum = 0.0;
    std::printf("per-layer accounting of the traced end-to-end time:\n");
    for (const char* row : kAccountingRows) {
      const double v = report.layer[row];
      if (v == 0.0) continue;
      sum += v;
      std::printf("  %-34s %s s\n", row, fmt(v).c_str());
    }
    std::printf("  %-34s %s s (trace.traced_s %s s, overhead %s)\n", "sum",
                fmt(sum).c_str(), fmt(report.layer["trace.traced_s"]).c_str(),
                fmt(report.layer["trace.overhead_frac"]).c_str());
    const std::string spans = o.workdir + "/spans-" + o.workload + "-seed" +
                              std::to_string(o.seed) + ".ndjson";
    if (tracer.write_ndjson(spans, meta))
      std::printf("spans: %s (%zu spans)\n", spans.c_str(),
                  tracer.spans().size());
  }
  for (const std::string& c : report.failed_checks)
    std::printf("CHECK FAILED: %s\n", c.c_str());
  std::printf("%s\n", meta.c_str());

  const bool correct = report.failed_checks.empty() && report.failed == 0;
  std::string metrics;
  for (const MetricDef& m : o.trace ? kPerLayer : kEndToEnd) {
    const std::map<std::string, double>& src =
        o.trace ? report.layer : report.e2e;
    const auto it = src.find(m.name);
    const double v = it != src.end() ? it->second : 0.0;
    if (!metrics.empty()) metrics += ',';
    metrics += std::string("\"") + m.name + "\":{\"value\":" + num(v) +
               ",\"unit\":\"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
