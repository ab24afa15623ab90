// dqctl — command-line driver for the dynamic-quarantine library.
//
//   dqctl scenario [options]     evaluate a worm/defense scenario
//   dqctl trace [options]        synthesize a department trace (CSV)
//   dqctl analyze FILE [options] contact-rate analysis of a trace CSV
//   dqctl plan FILE [options]    derive a quarantine plan from a trace
//   dqctl quarantine [FILE]      replay a trace through the quarantine
//                                engine (synthesizes one when no FILE)
//   dqctl figure ID [--csv]      print one paper figure (fig1a..fig11)
//   dqctl campaign list|status|run [NAMES...]
//                                declarative experiment campaigns with
//                                content-hashed artifact caching
//   dqctl obs summarize FILE     aggregate an NDJSON event trace
//                                (detection latency, false positives,
//                                per-kind event counts)
//   dqctl obs report FILE        render a metrics-snapshot NDJSON
//                                series (dqctl serve --metrics-out)
//                                into per-shard utilization and
//                                latency-percentile tables
//
// Run any subcommand with --help for its options.
#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/scenarios.hpp"
#include "obs/ndjson.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "core/experiments.hpp"
#include "stats/hash.hpp"
#include "core/planner.hpp"
#include "core/scenario.hpp"
#include "serve/failpoints.hpp"
#include "serve/server.hpp"
#include "trace/analysis.hpp"
#include "trace/classifier.hpp"
#include "trace/department.hpp"
#include "trace/quarantine_replay.hpp"

namespace {

using namespace dq;

/// Argument mistakes (unknown command or flag): main prints the
/// message and the usage text and exits 2, like no arguments at all —
/// distinct from runtime failures (exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Minimal "--key value / --flag" parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) == 0) {
        const std::string key = token.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
          values_[key] = argv[++i];
        else
          values_[key] = "";
      } else {
        positional_.push_back(std::move(token));
      }
    }
  }

  /// Strict mode: every --flag present must be in `allowed` (--help is
  /// always accepted). Called once per subcommand, so a typo fails
  /// loudly instead of silently falling back to a default.
  void allow_only(const std::vector<std::string_view>& allowed) const {
    for (const auto& [key, value] : values_) {
      if (key == "help") continue;
      bool known = false;
      for (const std::string_view a : allowed) known = known || key == a;
      if (!known) throw UsageError("unknown flag --" + key);
    }
  }

  bool flag(const std::string& key) const { return values_.contains(key); }
  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  /// Integer flag (counts, sizes, seeds, intervals): anything but plain
  /// decimal digits — a sign, a fraction, trailing text — or a value
  /// below `min` or beyond T's range is a usage error.
  template <typename T>
  T count(const std::string& key, T fallback, T min = 0) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size() || value < min)
      throw UsageError("--" + key + " needs an integer >= " +
                       std::to_string(min) + ", got '" + text + "'");
    return value;
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

int usage() {
  std::cerr
      << "usage:\n"
         "  dqctl scenario [--topology star|powerlaw|subnets] "
         "[--topology-file EDGELIST]\n"
         "                 [--nodes N]\n"
         "                 [--beta B] [--worm random|localpref|sequential|"
         "permutation|hitlist]\n"
         "                 [--deployment none|host|edge|backbone]\n"
         "                 [--host-fraction Q] [--immunize-at F] [--mu M]\n"
         "                 [--horizon T] [--runs R] [--seed S] "
         "[--analytical]\n"
         "  dqctl trace [--duration SECONDS] [--seed S] [--out FILE]\n"
         "              [--normal N --servers N --p2p N --blaster N "
         "--welchia N]\n"
         "  dqctl analyze FILE [--window W] [--per-host] "
         "[--coverage C]\n"
         "  dqctl classify FILE        behavioural host classification\n"
         "  dqctl plan FILE [--normal N --servers N --p2p N --blaster N "
         "--welchia N]\n"
         "  dqctl quarantine [FILE] [census flags as for plan] "
         "[--duration SECONDS]\n"
         "                   [--window W] [--contact-limit C] "
         "[--distinct-limit D]\n"
         "                   [--failure-ratio F] [--min-attempts A] "
         "[--strikes K]\n"
         "                   [--base-period P] [--escalation E] "
         "[--max-period M] [--seed S]\n"
         "                   [--estimator exact|shared_bitmap] "
         "[--block-hosts K] [--pool-bits B] [--virtual-bits V]\n"
         "  dqctl figure ID [--csv] [--quick]   (fig1a fig1b fig2 fig3a "
         "fig3b fig4 fig5 fig6 fig7a fig7b fig8a fig8b fig9a fig9b fig10 "
         "fig11)\n"
         "  dqctl campaign list                 show the scenario "
         "catalogue\n"
         "  dqctl campaign status [NAMES...]    per-job cache state, no "
         "execution\n"
         "  dqctl campaign run [NAMES...] [--jobs N] [--no-cache]\n"
         "                 [--cache-dir DIR] [--out DIR] [--runs R] "
         "[--seed S]\n"
         "                 [--quick] [--csv]    execute scenarios (all "
         "when no NAMES)\n"
         "                 [--trace-dir DIR]    write per-job NDJSON "
         "event traces\n"
         "                 [--metrics-out FILE] write merged metrics "
         "snapshot (JSON)\n"
         "                 [--profile-out FILE] write a Chrome trace of "
         "the job schedule\n"
         "                 [--progress]         live one-line progress "
         "meter\n"
         "  dqctl obs summarize FILE [--json]   aggregate an NDJSON "
         "event trace\n"
         "  dqctl obs report FILE               per-shard health + "
         "latency tables from\n"
         "                                      a serve --metrics-out "
         "snapshot series\n"
         "  dqctl serve [--input FILE | --trace FILE [--speed X] | "
         "--synthetic]\n"
         "              [--shards N] [--hosts N] [--flows N] "
         "[--worm-fraction F]\n"
         "              [--out FILE] [--no-decisions] "
         "[--metrics-out FILE]\n"
         "              [--metrics-interval N] "
         "[--metrics-interval-ms MS] [--stop-after N]\n"
         "              [--queue-capacity N] [--slo-ms MS]\n"
         "              [--prom-out FILE] [--metrics-addr HOST:PORT] "
         "[--profile-out FILE]\n"
         "              [--checkpoint-out FILE [--checkpoint-interval N]] "
         "[--restore FILE]\n"
         "              [--overload block|shed] [--stall-timeout SECONDS]\n"
         "              [--inject SPEC]         failpoints, also via "
         "DQ_FAILPOINTS (docs/ROBUSTNESS.md)\n"
         "              [census flags as for plan] [detector/policy "
         "flags as for quarantine]\n"
         "              stream quarantine decisions (NDJSON in, NDJSON "
         "out)\n";
  return 2;
}

core::Scenario scenario_from(const Args& args) {
  core::Scenario s;
  const std::string topology = args.str("topology", "powerlaw");
  if (topology == "star")
    s.topology.kind = core::ScenarioTopology::Kind::kStar;
  else if (topology == "subnets")
    s.topology.kind = core::ScenarioTopology::Kind::kSubnets;
  else if (topology == "powerlaw")
    s.topology.kind = core::ScenarioTopology::Kind::kPowerLaw;
  else
    throw std::invalid_argument("unknown topology: " + topology);
  if (args.flag("topology-file")) {
    s.topology.kind = core::ScenarioTopology::Kind::kEdgeList;
    s.topology.edge_list_path = args.str("topology-file", "");
  }
  s.topology.nodes = args.count<std::size_t>("nodes", 1000);
  s.worm.contact_rate = args.num("beta", 0.8);

  const std::string worm = args.str("worm", "random");
  if (worm == "localpref")
    s.worm.worm_class = epidemic::WormClass::kLocalPreferential;
  else if (worm == "sequential")
    s.worm.scan_strategy = worm::ScanStrategy::kSequential;
  else if (worm == "permutation")
    s.worm.scan_strategy = worm::ScanStrategy::kPermutation;
  else if (worm == "hitlist")
    s.worm.scan_strategy = worm::ScanStrategy::kHitlist;
  else if (worm != "random")
    throw std::invalid_argument("unknown worm: " + worm);

  const std::string deployment = args.str("deployment", "none");
  if (deployment == "host")
    s.defense.deployment = core::Deployment::kHostBased;
  else if (deployment == "edge")
    s.defense.deployment = core::Deployment::kEdgeRouter;
  else if (deployment == "backbone")
    s.defense.deployment = core::Deployment::kBackbone;
  else if (deployment != "none")
    throw std::invalid_argument("unknown deployment: " + deployment);
  s.defense.host_fraction = args.num("host-fraction", 0.0);
  if (args.flag("immunize-at")) {
    s.defense.immunization_start_fraction = args.num("immunize-at", 0.2);
    s.defense.immunization_rate = args.num("mu", 0.1);
  }
  s.horizon = args.num("horizon", 100.0);
  s.seed = args.count<std::uint64_t>("seed", 42);
  return s;
}

int cmd_scenario(const Args& args) {
  args.allow_only({"topology", "topology-file", "nodes", "beta", "worm",
                   "deployment", "host-fraction", "immunize-at", "mu",
                   "horizon", "runs", "seed", "analytical"});
  const core::Scenario s = scenario_from(args);
  const core::PropagationResult result =
      args.flag("analytical")
          ? core::run_analytical(s)
          : core::run_simulation(s, args.count<std::size_t>("runs", 10, 1));
  std::cout << "time,ever_infected,active_infected\n";
  for (std::size_t i = 0; i < result.ever_infected.size(); ++i)
    std::cout << result.ever_infected.time_at(i) << ','
              << result.ever_infected.value_at(i) << ','
              << result.active_infected.value_at(i) << '\n';
  std::cerr << "t50 = " << result.time_to_half()
            << " ticks, final ever infected = "
            << result.final_ever_infected() << '\n';
  return 0;
}

trace::DepartmentConfig department_from(const Args& args) {
  trace::DepartmentConfig config;
  config.normal_clients = args.count<std::size_t>("normal", 999);
  config.servers = args.count<std::size_t>("servers", 17);
  config.p2p_clients = args.count<std::size_t>("p2p", 33);
  config.blaster_hosts = args.count<std::size_t>("blaster", 40);
  config.welchia_hosts = args.count<std::size_t>("welchia", 39);
  config.duration = args.num("duration", 3600.0);
  return config;
}

int cmd_trace(const Args& args) {
  args.allow_only({"duration", "seed", "out", "normal", "servers", "p2p",
                   "blaster", "welchia"});
  const trace::DepartmentConfig config = department_from(args);
  const trace::Trace department = trace::generate_department_trace(
      config, args.count<std::uint64_t>("seed", 42));
  const std::string out = args.str("out", "");
  if (out.empty()) {
    std::cout << department.to_csv();
  } else {
    std::ofstream file(out);
    if (!file) {
      std::cerr << "cannot write " << out << '\n';
      return 1;
    }
    file << department.to_csv();
    std::cerr << department.events().size() << " events -> " << out << '\n';
  }
  return 0;
}

trace::Trace load_trace(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("cannot read " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return trace::parse_trace_csv(buffer.str());
}

std::vector<trace::HostId> all_hosts(const trace::Trace& t) {
  trace::HostId max_host = 0;
  for (const trace::TraceEvent& e : t.events())
    max_host = std::max(max_host, e.host);
  std::vector<trace::HostId> hosts(max_host + 1);
  for (trace::HostId h = 0; h <= max_host; ++h) hosts[h] = h;
  return hosts;
}

int cmd_analyze(const Args& args) {
  args.allow_only({"window", "per-host", "coverage"});
  if (args.positional().empty()) return usage();
  const trace::Trace t = load_trace(args.positional()[0]);
  const std::vector<trace::HostId> hosts = all_hosts(t);
  trace::ContactRateOptions options;
  options.window = args.num("window", 5.0);
  options.aggregate = !args.flag("per-host");
  const double coverage = args.num("coverage", 0.999);

  std::cout << "events: " << t.events().size() << ", hosts: " << hosts.size()
            << ", duration: " << t.duration() << " s\n";
  const char* names[] = {"distinct IPs", "no prior contact",
                         "no prior, no DNS"};
  const trace::Refinement refinements[] = {
      trace::Refinement::kAllDistinct, trace::Refinement::kNoPriorContact,
      trace::Refinement::kNoPriorNoDns};
  for (int i = 0; i < 3; ++i) {
    const auto counts =
        trace::window_counts(t, hosts, refinements[i], options);
    const trace::ImpactReport stats = trace::evaluate_limit(counts, 1e18);
    const double limit = EmpiricalCdf(counts).limit_for_coverage(coverage);
    std::cout << names[i] << ": mean " << stats.mean_count << ", max "
              << stats.max_count << ", " << 100.0 * coverage
              << "% limit = " << limit << " per " << options.window
              << " s window\n";
  }
  return 0;
}

int cmd_classify(const Args& args) {
  args.allow_only({});
  if (args.positional().empty()) return usage();
  const trace::Trace t = load_trace(args.positional()[0]);
  const auto features = trace::extract_features(t);
  std::size_t counts[5] = {};
  std::cout << "host,category,outbound_rate,inbound_ratio,dns_fraction,"
               "freshness,peak_per_minute\n";
  for (const trace::HostFeatures& f : features) {
    const trace::HostCategory category = trace::classify_host(f);
    ++counts[static_cast<int>(category)];
    std::cout << f.host << ',' << trace::to_string(category) << ','
              << f.outbound_rate() << ',' << f.inbound_outbound_ratio()
              << ',' << f.dns_fraction() << ',' << f.freshness() << ','
              << f.peak_distinct_per_minute << '\n';
  }
  std::cerr << "census: normal " << counts[0] << ", server " << counts[1]
            << ", p2p " << counts[2] << ", blaster " << counts[3]
            << ", welchia " << counts[4] << '\n';
  return 0;
}

int cmd_plan(const Args& args) {
  args.allow_only({"normal", "servers", "p2p", "blaster", "welchia"});
  if (args.positional().empty()) return usage();
  trace::Trace t = load_trace(args.positional()[0]);
  // Assign categories in id order from the census options (the CSV
  // format does not carry categories).
  const trace::DepartmentConfig census = department_from(args);
  std::vector<trace::HostCategory> categories;
  auto fill = [&](std::size_t n, trace::HostCategory c) {
    categories.insert(categories.end(), n, c);
  };
  fill(census.normal_clients, trace::HostCategory::kNormalClient);
  fill(census.servers, trace::HostCategory::kServer);
  fill(census.p2p_clients, trace::HostCategory::kP2P);
  fill(census.blaster_hosts, trace::HostCategory::kWormBlaster);
  fill(census.welchia_hosts, trace::HostCategory::kWormWelchia);
  t.set_host_categories(std::move(categories));
  std::cout << core::plan_from_trace(t).summary();
  return 0;
}

/// The trace-domain detector/policy flags shared by `quarantine` and
/// `serve`.
constexpr std::string_view kQuarantineFlags[] = {
    "window",        "contact-limit", "distinct-limit",
    "failure-ratio", "min-attempts",  "strikes",
    "base-period",   "escalation",    "max-period",
    "estimator",     "block-hosts",   "pool-bits",
    "virtual-bits"};

quarantine::QuarantineConfig quarantine_config_from(const Args& args) {
  quarantine::QuarantineConfig config;
  config.enabled = true;
  config.detector.window = args.num("window", 5.0);
  config.detector.contact_rate_threshold = args.num("contact-limit", 25.0);
  config.detector.distinct_dest_threshold = args.num("distinct-limit", 20.0);
  // Trace-domain failure signal: "failed" means a first-contact
  // destination (no DNS, no prior inbound), which normal clients also
  // produce in small numbers — so the ratio needs a high bar and a
  // generous minimum-attempt guard, unlike the simulator where failure
  // means a genuinely unanswered scan.
  config.detector.failure_ratio_threshold = args.num("failure-ratio", 0.9);
  config.detector.failure_min_attempts =
      args.count<std::uint32_t>("min-attempts", 10);
  config.policy.strikes_to_quarantine = args.count<std::uint32_t>("strikes", 1);
  config.policy.base_period = args.num("base-period", 300.0);
  config.policy.escalation = args.num("escalation", 4.0);
  config.policy.max_period = args.num("max-period", 3600.0);
  // Detector-state backend (docs/QUARANTINE.md "Estimator backends"):
  // exact per-host detectors, or the shared-bitmap pool at a few
  // bytes/host for million-host fronts.
  const std::string estimator = args.str("estimator", "exact");
  if (estimator == "shared_bitmap")
    config.estimator_backend = quarantine::EstimatorBackend::kSharedBitmap;
  else if (estimator != "exact")
    throw UsageError("--estimator must be exact or shared_bitmap");
  config.compact.block_hosts = args.count<std::uint32_t>("block-hosts", 256);
  config.compact.pool_bits_per_host = args.count<std::uint32_t>("pool-bits", 6);
  config.compact.virtual_bits = args.count<std::uint32_t>("virtual-bits", 64);
  return config;
}

/// Assigns census categories in host-id order (the CSV format does not
/// carry them).
void apply_census(trace::Trace& t, const trace::DepartmentConfig& census) {
  std::vector<trace::HostCategory> categories;
  auto fill = [&](std::size_t n, trace::HostCategory c) {
    categories.insert(categories.end(), n, c);
  };
  fill(census.normal_clients, trace::HostCategory::kNormalClient);
  fill(census.servers, trace::HostCategory::kServer);
  fill(census.p2p_clients, trace::HostCategory::kP2P);
  fill(census.blaster_hosts, trace::HostCategory::kWormBlaster);
  fill(census.welchia_hosts, trace::HostCategory::kWormWelchia);
  t.set_host_categories(std::move(categories));
}

int cmd_quarantine(const Args& args) {
  std::vector<std::string_view> allowed = {"duration", "seed",   "normal",
                                           "servers",  "p2p",    "blaster",
                                           "welchia"};
  allowed.insert(allowed.end(), std::begin(kQuarantineFlags),
                 std::end(kQuarantineFlags));
  args.allow_only(allowed);
  // Load a trace CSV when given, else synthesize the department trace;
  // either way the census flags define the per-category ground truth.
  const trace::DepartmentConfig census = department_from(args);
  const auto seed = args.count<std::uint64_t>("seed", 42);
  trace::Trace t;
  if (!args.positional().empty()) {
    t = load_trace(args.positional()[0]);
    apply_census(t, census);
  } else {
    t = trace::generate_department_trace(census, seed);
  }

  const quarantine::QuarantineConfig config = quarantine_config_from(args);
  const trace::QuarantineReplayReport report =
      trace::replay_quarantine(t, config);

  std::cout << report.events_processed << " events over " << t.duration()
            << " s, " << t.num_hosts() << " hosts\n\n";
  std::cout << std::left << std::setw(16) << "category" << std::right
            << std::setw(7) << "hosts" << std::setw(13) << "quarantined"
            << std::setw(9) << "events" << std::setw(13) << "mean-q-time"
            << std::setw(13) << "latency" << '\n';
  std::cout << std::fixed << std::setprecision(2);
  for (const trace::CategoryQuarantineStats& c : report.categories) {
    std::cout << std::left << std::setw(16) << trace::to_string(c.category)
              << std::right << std::setw(7) << c.hosts << std::setw(8)
              << c.quarantined_hosts << " (" << std::setw(3)
              << static_cast<int>(100.0 * c.quarantined_fraction + 0.5)
              << "%)" << std::setw(9) << c.quarantine_events << std::setw(12)
              << c.mean_quarantine_time << " s";
    if (c.mean_detection_latency >= 0.0)
      std::cout << std::setw(11) << c.mean_detection_latency << " s";
    else
      std::cout << std::setw(13) << "-";
    std::cout << '\n';
  }
  const quarantine::QuarantineReport& overall = report.overall;
  std::cout << "\nworm hosts detected : " << overall.detected_targets
            << " of " << overall.target_hosts << " ("
            << 100.0 * overall.detection_rate << "%), mean latency "
            << overall.mean_detection_latency << " s\n";
  std::cout << "false positives     : " << overall.false_positive_hosts
            << " of " << overall.benign_hosts << " benign hosts ("
            << 100.0 * overall.false_positive_rate << "%)\n";
  std::cout << "benign quarantine   : " << overall.benign_quarantine_time
            << " s total, " << overall.mean_benign_quarantine_time
            << " s per false-positive host\n";
  return 0;
}

int cmd_serve(const Args& args) {
  std::vector<std::string_view> allowed = {
      "input",       "trace",      "speed",          "synthetic",
      "flows",       "hosts",      "worm-fraction",  "shards",
      "queue-capacity", "out",     "no-decisions",   "metrics-out",
      "metrics-interval", "stop-after", "seed",      "duration",
      "normal",      "servers",    "p2p",            "blaster",
      "welchia",     "checkpoint-out", "checkpoint-interval",
      "restore",     "overload",   "stall-timeout",  "inject",
      "metrics-interval-ms", "prom-out", "metrics-addr", "slo-ms",
      "profile-out"};
  allowed.insert(allowed.end(), std::begin(kQuarantineFlags),
                 std::end(kQuarantineFlags));
  args.allow_only(allowed);

  const bool trace_mode = args.flag("trace");
  const bool synthetic_mode = args.flag("synthetic");
  if (trace_mode && synthetic_mode)
    throw UsageError("serve: --trace and --synthetic are exclusive");

  serve::ServeOptions options;
  options.shards = args.count<std::size_t>("shards", 1);
  options.quarantine = quarantine_config_from(args);
  options.queue_capacity = args.count<std::size_t>("queue-capacity", 4096);
  options.emit_decisions = !args.flag("no-decisions");
  options.metrics_interval_flows =
      args.count<std::uint64_t>("metrics-interval", 0);
  options.metrics_interval_ms =
      args.count<std::uint64_t>("metrics-interval-ms", 0);
  options.prom_path = args.str("prom-out", "");
  options.metrics_addr = args.str("metrics-addr", "");
  options.slo_ms = args.num("slo-ms", 0.0);
  options.stop_after_flows = args.count<std::uint64_t>("stop-after", 0);
  // Profiling is process-local: the profiler outlives the server and is
  // rendered after run() returns (Chrome trace file + stderr table).
  std::unique_ptr<obs::Profiler> profiler;
  const std::string profile_out = args.str("profile-out", "");
  if (!profile_out.empty()) {
    profiler = std::make_unique<obs::Profiler>();
    options.profiler = profiler.get();
  }

  const std::string overload = args.str("overload", "block");
  if (overload == "block")
    options.overload = serve::OverloadPolicy::kBlock;
  else if (overload == "shed")
    options.overload = serve::OverloadPolicy::kShed;
  else
    throw UsageError("serve: --overload must be block or shed");
  options.stall_timeout_seconds = args.num("stall-timeout", 0.0);
  options.checkpoint_path = args.str("checkpoint-out", "");
  options.checkpoint_interval_flows =
      args.count<std::uint64_t>("checkpoint-interval", 0);

  // Fault injection: --inject wins over the DQ_FAILPOINTS environment
  // variable; either way the spec is validated before the run starts.
  std::string inject = args.str("inject", "");
  if (!args.flag("inject")) {
    if (const char* env = std::getenv("DQ_FAILPOINTS")) inject = env;
  }
  serve::Failpoints::global().configure(inject);

  // A corrupt or truncated checkpoint raises serve::CheckpointError,
  // which main() reports on stderr with exit 1 — never a crash, never a
  // silent fresh start.
  std::shared_ptr<const serve::CheckpointState> restore;
  const std::string restore_path = args.str("restore", "");
  if (!restore_path.empty()) {
    if (trace_mode)
      throw std::invalid_argument(
          "serve: --restore is not supported with --trace (the trace "
          "failure oracle is in-memory state; restore NDJSON or "
          "synthetic streams)");
    restore = std::make_shared<const serve::CheckpointState>(
        serve::load_checkpoint_file(restore_path));
  }
  options.restore = restore;

  // Pick the flow source. Streams opened here must outlive run().
  std::ifstream input_file;
  trace::Trace t;
  serve::SyntheticConfig synth;
  std::unique_ptr<serve::FlowSource> source;
  if (trace_mode) {
    t = load_trace(args.str("trace", ""));
    apply_census(t, department_from(args));
    if (t.num_hosts() < 1)
      throw std::invalid_argument("serve: census is empty");
    options.num_hosts = static_cast<std::uint32_t>(t.num_hosts());
    source = std::make_unique<serve::TraceFlowSource>(
        t, args.num("speed", 0.0));
  } else if (synthetic_mode) {
    synth.flows = args.count<std::uint64_t>("flows", 1000000);
    synth.hosts = args.count<std::uint32_t>("hosts", 65536);
    synth.worm_fraction = args.num("worm-fraction", 0.01);
    synth.seed = args.count<std::uint64_t>("seed", 42);
    if (restore != nullptr) {
      if (args.flag("hosts") && synth.hosts != restore->num_hosts)
        throw std::invalid_argument(
            "serve: --hosts disagrees with the checkpoint's host count");
      synth.hosts = restore->num_hosts;
      // Flow i is a pure function of (seed, i): resume emits exactly
      // the remainder of the uninterrupted stream.
      synth.start_flow = restore->flows_ingested;
    }
    options.num_hosts = synth.hosts;
    source = std::make_unique<serve::SyntheticFlowSource>(synth);
  } else {
    options.num_hosts = args.count<std::uint32_t>("hosts", 65536);
    if (restore != nullptr) {
      if (args.flag("hosts") && options.num_hosts != restore->num_hosts)
        throw std::invalid_argument(
            "serve: --hosts disagrees with the checkpoint's host count");
      options.num_hosts = restore->num_hosts;
    }
    const std::string input = args.str("input", "-");
    std::istream* in = &std::cin;
    if (input != "-") {
      input_file.open(input, std::ios::binary);
      if (!input_file)
        throw std::invalid_argument("cannot read " + input);
      in = &input_file;
    }
    source =
        std::make_unique<serve::NdjsonFlowSource>(*in, options.num_hosts);
  }

  // Decision NDJSON to stdout unless redirected; metrics snapshots only
  // when asked for.
  std::ofstream out_file;
  std::ostream* decisions = &std::cout;
  const std::string out = args.str("out", "-");
  if (out != "-") {
    out_file.open(out, std::ios::binary | std::ios::trunc);
    if (!out_file) throw std::invalid_argument("cannot write " + out);
    decisions = &out_file;
  }
  std::ofstream metrics_file;
  std::ostream* metrics = nullptr;
  const std::string metrics_out = args.str("metrics-out", "");
  if (!metrics_out.empty()) {
    metrics_file.open(metrics_out, std::ios::binary | std::ios::trunc);
    if (!metrics_file)
      throw std::invalid_argument("cannot write " + metrics_out);
    metrics = &metrics_file;
  }

  serve::install_stop_handlers();
  serve::ServeServer server(options);
  if (!options.metrics_addr.empty())
    std::cerr << "metrics: http://127.0.0.1:" << server.metrics_port()
              << "/metrics\n";
  // With --no-decisions the per-flow lines are skipped but the final
  // summary line is still written to the decision stream.
  const serve::ServeSummary summary = server.run(*source, decisions, metrics);
  if (out_file.is_open() && !out_file)
    throw std::runtime_error("serve: error writing " + out);

  if (profiler != nullptr) {
    std::ofstream trace_file(profile_out,
                             std::ios::binary | std::ios::trunc);
    if (!trace_file)
      throw std::runtime_error("serve: cannot write " + profile_out);
    profiler->write_chrome_trace(trace_file);
    std::cerr << "profile: " << profiler->total_spans() << " spans -> "
              << profile_out << '\n'
              << profiler->render_table();
  }

  std::string degraded_note;
  if (summary.degraded)
    degraded_note = ", " + std::to_string(summary.shed_flows) +
                    " flows shed (DEGRADED)";
  std::cerr << std::fixed << std::setprecision(3) << summary.flows_ingested
            << " flows in " << summary.wall_seconds << " s ("
            << std::setprecision(0) << summary.flows_per_sec
            << " flows/s), " << summary.parse_errors << " parse errors, "
            << summary.time_regressions << " time regressions"
            << degraded_note
            << (summary.interrupted ? " — interrupted, drained" : "")
            << '\n';
  std::cerr << "decision latency p50/p90/p99/p999: "
            << summary.latency_p50_ns << "/" << summary.latency_p90_ns << "/"
            << summary.latency_p99_ns << "/" << summary.latency_p999_ns
            << " ns\n";
  if (summary.slo_ms > 0.0)
    std::cerr << "SLO " << summary.slo_ms << " ms: " << summary.slo_breaches
              << " breaches"
              << (summary.slo_breached ? " (BREACHED)" : " (met)") << '\n';
  const quarantine::QuarantineReport& r = summary.report;
  std::cerr << std::setprecision(2) << "detected " << r.detected_targets
            << " of " << r.target_hosts << " labeled hosts, "
            << r.false_positive_hosts << " of " << r.benign_hosts
            << " benign quarantined, " << r.benign_quarantine_time
            << " s benign quarantine time\n";
  return 0;
}

/// `dqctl figure ID`: the figure from the catalogue scenario that
/// defines it, run without the cache. The trace figures fig9a/fig9b
/// are not campaign jobs and come straight from core.
int cmd_figure(const Args& args) {
  args.allow_only({"csv", "quick"});
  if (args.positional().empty()) return usage();
  const std::string id = args.positional()[0];
  const core::ExperimentOptions options =
      args.flag("quick") ? core::ExperimentOptions::quick()
                         : core::ExperimentOptions{};

  std::optional<core::FigureData> fig;
  if (id == "fig9a" || id == "fig9b") {
    const trace::Trace department = core::make_department_trace(options);
    fig = id == "fig9a" ? core::fig9a_normal_client_cdf(department)
                        : core::fig9b_worm_host_cdf(department);
  } else {
    const std::vector<campaign::ScenarioDef> catalogue =
        campaign::builtin_scenarios(options);
    const auto scenario = std::find_if(
        catalogue.begin(), catalogue.end(),
        [&](const campaign::ScenarioDef& s) {
          return std::any_of(
              s.figures.begin(), s.figures.end(),
              [&](const campaign::ScenarioFigure& f) { return f.id == id; });
        });
    if (scenario == catalogue.end()) {
      std::cerr << "unknown figure id: " << id << '\n';
      return usage();
    }
    campaign::RunOptions run_options;
    run_options.use_cache = false;
    const campaign::CampaignReport report =
        campaign::run_scenarios({*scenario}, run_options);
    for (const core::FigureData& built : report.figures)
      if (built.id == id) fig = built;
    if (!fig) {
      for (const campaign::JobOutcome& outcome : report.outcomes)
        if (!outcome.ok())
          std::cerr << "dqctl: " << outcome.name << ": " << outcome.error
                    << '\n';
      return 1;
    }
  }

  std::cout << (args.flag("csv") ? core::render_csv(*fig)
                                 : core::render_table(*fig));
  return 0;
}

/// Resolves the NAMES positionals (minus the verb) against the
/// catalogue; no names selects every scenario.
std::vector<campaign::ScenarioDef> select_scenarios(
    const std::vector<campaign::ScenarioDef>& catalogue, const Args& args) {
  std::vector<campaign::ScenarioDef> selected;
  if (args.positional().size() <= 1) return catalogue;
  for (std::size_t i = 1; i < args.positional().size(); ++i) {
    const std::string& name = args.positional()[i];
    const campaign::ScenarioDef* scenario =
        campaign::find_scenario(catalogue, name);
    if (!scenario)
      throw std::invalid_argument("unknown scenario: " + name +
                                  " (try `dqctl campaign list`)");
    selected.push_back(*scenario);
  }
  return selected;
}

/// Live one-line campaign progress meter. Job events arrive from
/// worker threads, so every update happens under a mutex; the line is
/// rewritten in place with '\r' and padded to cover the previous one.
class ProgressMeter {
 public:
  void operator()(const campaign::JobEvent& event) {
    std::lock_guard<std::mutex> lock(mu_);
    switch (event.phase) {
      case campaign::JobPhase::kQueued:
        ++queued_;
        break;
      case campaign::JobPhase::kStarted:
      case campaign::JobPhase::kCacheHit:
        // kCacheHit is followed by kFinished with cache_hit set; count
        // hits there so a hit is not tallied twice.
        return;
      case campaign::JobPhase::kFinished:
        ++done_;
        if (event.cache_hit) ++hits_;
        break;
      case campaign::JobPhase::kFailed:
        ++done_;
        ++failed_;
        break;
    }
    std::ostringstream line;
    line << "[" << done_ << "/" << queued_ << "] " << hits_ << " cached";
    if (failed_ > 0) line << ", " << failed_ << " failed";
    line << "  " << event.name;
    std::string text = line.str();
    const std::size_t width = text.size();
    if (text.size() < last_width_) text.append(last_width_ - text.size(), ' ');
    last_width_ = width;
    std::cerr << '\r' << text << std::flush;
  }

  /// Ends the meter line so subsequent output starts on a fresh line.
  void finish() {
    std::lock_guard<std::mutex> lock(mu_);
    if (last_width_ > 0) std::cerr << '\n';
  }

 private:
  std::mutex mu_;
  std::size_t queued_ = 0;
  std::size_t done_ = 0;
  std::size_t hits_ = 0;
  std::size_t failed_ = 0;
  std::size_t last_width_ = 0;
};

/// `dqctl obs report FILE`: renders a serve --metrics-out snapshot
/// series (full-snapshot NDJSON, one per line) into per-shard
/// utilization / queue-saturation and latency-percentile tables.
/// Per-shard rows need the health gauges (--metrics-interval-ms,
/// --prom-out, or --metrics-addr on the producing run); the latency
/// table needs only the serve.decision_latency_ns histogram every
/// serve run records.
int cmd_obs_report(const std::string& path) {
  using campaign::JsonValue;
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read " + path);

  std::vector<JsonValue> snaps;
  std::string line;
  std::size_t malformed = 0;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    try {
      snaps.push_back(JsonValue::parse(line));
    } catch (const std::exception&) {
      ++malformed;
    }
  }
  if (snaps.empty())
    throw std::runtime_error("obs report: no metrics snapshots in " + path);
  if (malformed > 0)
    std::cerr << "obs report: skipped " << malformed
              << " malformed lines\n";

  // Per-shard health: peaks over the series, final decided counts.
  struct ShardRow {
    double max_queue = 0.0;
    double max_backlog = 0.0;
    double decided = 0.0;
  };
  std::map<std::uint64_t, ShardRow> shards;
  const auto shard_of = [](const std::string& name,
                           std::string_view prefix) -> long {
    // "<prefix>{shard=N}"
    if (name.size() <= prefix.size() + 8 ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(prefix.size(), 7, "{shard=") != 0 ||
        name.back() != '}')
      return -1;
    try {
      return std::stol(name.substr(prefix.size() + 7));
    } catch (const std::exception&) {
      return -1;
    }
  };
  for (const JsonValue& snap : snaps) {
    const JsonValue* gauges = snap.find("gauges");
    if (gauges == nullptr) continue;
    for (const auto& [name, value] : gauges->members()) {
      long s;
      if ((s = shard_of(name, "serve.shard_queue_depth")) >= 0) {
        ShardRow& row = shards[static_cast<std::uint64_t>(s)];
        row.max_queue = std::max(row.max_queue, value.as_number());
      } else if ((s = shard_of(name, "serve.shard_backlog")) >= 0) {
        ShardRow& row = shards[static_cast<std::uint64_t>(s)];
        row.max_backlog = std::max(row.max_backlog, value.as_number());
      } else if ((s = shard_of(name, "serve.shard_decided")) >= 0) {
        shards[static_cast<std::uint64_t>(s)].decided = value.as_number();
      }
    }
  }

  char buf[200];
  if (!shards.empty()) {
    double total_decided = 0.0;
    for (const auto& [s, row] : shards) total_decided += row.decided;
    std::cout << "per-shard health (" << snaps.size() << " snapshots)\n";
    std::snprintf(buf, sizeof buf, "%-8s %14s %14s %14s %8s\n", "shard",
                  "max queue", "max backlog", "decided", "share");
    std::cout << buf;
    for (const auto& [s, row] : shards) {
      const double share =
          total_decided > 0.0 ? 100.0 * row.decided / total_decided : 0.0;
      std::snprintf(buf, sizeof buf, "%-8llu %14.0f %14.0f %14.0f %7.1f%%\n",
                    static_cast<unsigned long long>(s), row.max_queue,
                    row.max_backlog, row.decided, share);
      std::cout << buf;
    }
    std::cout << '\n';
  } else {
    std::cout << "no per-shard health gauges in the series (enable with "
                 "--metrics-interval-ms, --prom-out, or --metrics-addr)\n\n";
  }

  // Latency percentiles per snapshot (log-2 bucket resolution).
  bool any_latency = false;
  for (const JsonValue& snap : snaps) {
    const JsonValue* hists = snap.find("histograms");
    if (hists != nullptr &&
        hists->find("serve.decision_latency_ns") != nullptr) {
      any_latency = true;
      break;
    }
  }
  if (any_latency) {
    std::cout << "decision latency (us, log-2 bucket upper bounds)\n";
    std::snprintf(buf, sizeof buf, "%-10s %14s %12s %12s %12s %12s\n",
                  "snapshot", "flows", "p50", "p90", "p99", "p999");
    std::cout << buf;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      const JsonValue* hists = snaps[i].find("histograms");
      const JsonValue* hist =
          hists != nullptr ? hists->find("serve.decision_latency_ns")
                           : nullptr;
      if (hist == nullptr) continue;
      std::uint64_t flows = 0;
      if (const JsonValue* counters = snaps[i].find("counters"))
        if (const JsonValue* fi = counters->find("serve.flows_ingested"))
          flows = fi->as_uint();
      const double scale = 1e-3;  // ns -> us
      std::snprintf(
          buf, sizeof buf, "%-10zu %14llu %12.1f %12.1f %12.1f %12.1f\n", i,
          static_cast<unsigned long long>(flows),
          static_cast<double>(obs::snapshot_histogram_quantile(*hist, 0.50)) *
              scale,
          static_cast<double>(obs::snapshot_histogram_quantile(*hist, 0.90)) *
              scale,
          static_cast<double>(obs::snapshot_histogram_quantile(*hist, 0.99)) *
              scale,
          static_cast<double>(
              obs::snapshot_histogram_quantile(*hist, 0.999)) *
              scale);
      std::cout << buf;
    }
  } else {
    std::cout << "no serve.decision_latency_ns histogram in the series\n";
  }
  return 0;
}

int cmd_obs(const Args& args) {
  args.allow_only({"json"});
  if (args.positional().size() < 2) return usage();
  const std::string& verb = args.positional()[0];
  if (verb == "report") return cmd_obs_report(args.positional()[1]);
  if (verb != "summarize") return usage();
  const std::string& path = args.positional()[1];
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const obs::NdjsonSummary summary = obs::summarize_ndjson(buffer.str());

  if (args.flag("json")) {
    std::cout << summary.to_json().dump() << '\n';
    return 0;
  }
  std::cout << "events            " << summary.total_events << " ("
            << summary.runs << " run" << (summary.runs == 1 ? "" : "s");
  if (summary.malformed_lines > 0)
    std::cout << ", " << summary.malformed_lines << " malformed lines";
  std::cout << ")\n";
  for (const auto& [kind, count] : summary.events_by_kind)
    std::cout << "  " << std::left << std::setw(22) << kind << count << '\n';
  std::cout << "infected hosts    " << summary.infected_hosts << '\n'
            << "quarantined hosts " << summary.quarantined_hosts << '\n'
            << "detected hosts    " << summary.detected_hosts << '\n'
            << "false positives   " << summary.false_positive_hosts << '\n'
            << "detector strikes  " << summary.strikes
            << (summary.strikes_time_ordered ? " (time-ordered)"
                                             : " (OUT OF ORDER)")
            << '\n';
  if (summary.detected_hosts > 0)
    std::cout << "mean detection latency " << std::fixed
              << std::setprecision(3) << summary.mean_detection_latency
              << " ticks\n";
  return 0;
}

int cmd_campaign(const Args& args) {
  args.allow_only({"jobs", "no-cache", "cache-dir", "out", "runs", "seed",
                   "quick", "csv", "trace-dir", "metrics-out", "progress",
                   "profile-out"});
  if (args.positional().empty()) return usage();
  const std::string verb = args.positional()[0];

  core::ExperimentOptions options = args.flag("quick")
                                        ? core::ExperimentOptions::quick()
                                        : core::ExperimentOptions{};
  if (args.flag("runs"))
    options.sim_runs = args.count<std::size_t>("runs", 10, 1);
  if (args.flag("seed"))
    options.seed = args.count<std::uint64_t>("seed", 42);
  const std::vector<campaign::ScenarioDef> catalogue =
      campaign::builtin_scenarios(options);

  campaign::RunOptions run_options;
  run_options.jobs = args.count<std::size_t>("jobs", 0);
  run_options.use_cache = !args.flag("no-cache");
  run_options.cache_dir = args.str("cache-dir", ".dq-cache");
  run_options.trace_dir = args.str("trace-dir", "");
  std::unique_ptr<obs::Profiler> profiler;
  const std::string profile_out = args.str("profile-out", "");
  if (!profile_out.empty()) {
    profiler = std::make_unique<obs::Profiler>();
    run_options.profiler = profiler.get();
  }
  ProgressMeter meter;
  if (args.flag("progress"))
    run_options.on_job_event = [&meter](const campaign::JobEvent& event) {
      meter(event);
    };

  if (verb == "list") {
    for (const campaign::ScenarioDef& scenario : catalogue)
      std::cout << std::left << std::setw(24) << scenario.name
                << scenario.jobs.size() << " jobs  "
                << scenario.description << '\n';
    return 0;
  }

  if (verb == "status") {
    const campaign::ArtifactCache cache(run_options.cache_dir);
    std::size_t cached = 0, total = 0;
    for (const campaign::ScenarioDef& scenario :
         select_scenarios(catalogue, args)) {
      for (const campaign::ScenarioJob& job : scenario.jobs) {
        const std::uint64_t hash = campaign::job_hash(job.config);
        const bool hit = cache.contains(hash);
        ++total;
        cached += hit ? 1 : 0;
        std::cout << (hit ? "cached " : "missing") << "  "
                  << dq::hash_hex(hash) << "  " << scenario.name << "/"
                  << job.name << '\n';
      }
    }
    std::cout << cached << "/" << total << " artifacts cached in "
              << run_options.cache_dir.string() << '\n';
    return 0;
  }

  if (verb != "run") return usage();

  const campaign::CampaignReport report =
      campaign::run_scenarios(select_scenarios(catalogue, args), run_options);
  meter.finish();

  if (profiler != nullptr) {
    std::ofstream trace_file(profile_out,
                             std::ios::binary | std::ios::trunc);
    if (!trace_file) throw std::runtime_error("cannot write " + profile_out);
    profiler->write_chrome_trace(trace_file);
    std::cerr << "profile: " << profiler->total_spans() << " spans -> "
              << profile_out << '\n'
              << profiler->render_table();
  }

  const std::string metrics_out = args.str("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream file(metrics_out, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("cannot write " + metrics_out);
    file << campaign::merge_outcome_metrics(report.outcomes).dump() << '\n';
  }

  int failures = 0;
  for (const campaign::JobOutcome& outcome : report.outcomes) {
    std::cerr << (outcome.ok() ? (outcome.cache_hit ? "hit    " : "ran    ")
                               : "FAILED ")
              << dq::hash_hex(outcome.hash) << "  " << std::left
              << std::setw(36) << outcome.name << std::fixed
              << std::setprecision(3) << outcome.wall_seconds << " s";
    if (!outcome.ok()) {
      std::cerr << "  (" << outcome.error << ")";
      ++failures;
    }
    std::cerr << '\n';
  }

  const std::string out_dir = args.str("out", "");
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    const auto write = [&](const std::filesystem::path& path,
                           const std::string& contents) {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      if (!file) throw std::runtime_error("cannot write " + path.string());
      file << contents;
    };
    write(std::filesystem::path(out_dir) / "manifest.json",
          report.manifest.dump() + "\n");
    for (const core::FigureData& fig : report.figures)
      write(std::filesystem::path(out_dir) /
                (fig.id + (args.flag("csv") ? ".csv" : ".txt")),
            args.flag("csv") ? core::render_csv(fig)
                             : core::render_table(fig));
    std::cerr << "wrote manifest + " << report.figures.size()
              << " figures to " << out_dir << '\n';
  } else {
    for (const core::FigureData& fig : report.figures)
      std::cout << (args.flag("csv") ? core::render_csv(fig)
                                     : core::render_table(fig))
                << '\n';
    std::cout << report.manifest.dump() << '\n';
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (args.flag("help")) {
    usage();
    return 0;
  }
  try {
    if (command == "scenario") return cmd_scenario(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "classify") return cmd_classify(args);
    if (command == "plan") return cmd_plan(args);
    if (command == "quarantine") return cmd_quarantine(args);
    if (command == "figure") return cmd_figure(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "obs") return cmd_obs(args);
    if (command == "serve") return cmd_serve(args);
    throw UsageError("unknown command: " + command);
  } catch (const UsageError& e) {
    std::cerr << "dqctl: " << e.what() << '\n';
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "dqctl: " << e.what() << '\n';
    return 1;
  }
}
