// sim-routed: the paper's Fig. 4 deployments on one all-pairs-routed
// Barabási–Albert graph, each run through sim::run_many.
// sim-scale: a million-node tree-routed graph and one dense outbreak run
// to saturation by sim::ShardedSimulation.
//
// One iteration is what a user pays for one result: graph generation,
// Network construction (set-up), then the engine.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "graph/builders.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "simulator/network.hpp"
#include "simulator/runner.hpp"
#include "simulator/sharded_sim.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dq::sim::Network;
using dq::sim::SimulationConfig;

dq::graph::Graph make_graph(std::uint64_t seed, std::size_t n) {
  dq::Rng rng(mix(seed ^ 0x62612d6772617068ULL));
  return dq::graph::make_barabasi_albert(n, 2, rng);
}

/// Bytes held by the network's routing structures, from its size and
/// backend (the layouts documented in simulator/network.hpp).
double routing_table_mib(const Network& net) {
  const double n = static_cast<double>(net.num_nodes());
  double bytes = 0.0;
  if (net.has_routing_table()) {
    bytes = n * n * 8.0;  // distance + next hop per ordered pair
    const dq::sim::NetworkOptions defaults;
    if (n * n * 4.0 <= static_cast<double>(defaults.dense_hop_table_bytes))
      bytes += n * n * 4.0;  // dense first-link table
  } else {
    bytes = n * (4.0 * 5.0 + 8.0);  // parent, link, tin, tout, child, offset
  }
  return bytes / (1024.0 * 1024.0);
}

struct Deployment {
  const char* name;
  SimulationConfig config;
};

/// Fig. 4: no rate limiting, 5% of hosts, edge routers, backbone.
std::vector<Deployment> fig4_deployments(std::uint64_t seed) {
  SimulationConfig base;
  base.worm.contact_rate = 0.8;
  base.worm.filtered_contact_rate = 0.01;
  base.worm.initial_infected = 1;
  base.max_ticks = 120.0;
  base.seed = mix(seed ^ 0x666967342d73696dULL);
  std::vector<Deployment> out;
  out.push_back({"no-RL", base});
  out.push_back({"5%-host-RL", base});
  out.back().config.deployment.host_filter_fraction = 0.05;
  out.push_back({"edge-RL", base});
  out.back().config.deployment.edge_router_limited = true;
  out.push_back({"backbone-RL", base});
  out.back().config.deployment.backbone_limited = true;
  return out;
}

bool monotone(const std::vector<double>& v) {
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i] < v[i - 1]) return false;
  return true;
}

/// Sum over ordered pairs of the routed hop distance: each shortest path
/// crosses exactly `distance` links, so this must equal the network's
/// total link load.
std::uint64_t distance_sum(const Network& net) {
  const dq::graph::RoutingTable& rt = net.routing();
  const auto n = static_cast<dq::graph::NodeId>(net.num_nodes());
  std::uint64_t sum = 0;
  for (dq::graph::NodeId s = 0; s < n; ++s)
    for (dq::graph::NodeId t = 0; t < n; ++t) sum += rt.distance(s, t);
  return sum;
}


/// What one sim iteration produced. The engine phase rows are filled on
/// traced sim-scale iterations; on sim-routed the whole engine call is
/// engine self time.
struct SimSample {
  double setup_s = 0, ttr_s = 0, graph_s = 0, routing_s = 0, engine_s = 0;
  double run_max_s = 0, emit_s = 0, apply_s = 0, merge_s = 0, record_s = 0;
  double engine_self_s = 0;
  double scan_packets = 0, ever_infected = 0;
};

/// One timed iteration: graph generation and Network construction (the
/// set-up), then `engine(net, root_span)`. Returns the network so the
/// checks can use it after the clock stops.
template <typename Engine>
Network timed_iteration(std::uint64_t seed, std::size_t n, Tracer* tr,
                        SimSample& s, Engine&& engine) {
  const std::uint64_t t0 = now_ns();
  std::optional<Network> net;
  {
    ScopedSpan root(tr, "iteration", -1);
    std::optional<dq::graph::Graph> g;
    {
      ScopedSpan span(tr, "graph.build", root.id());
      g.emplace(make_graph(seed, n));
    }
    const std::uint64_t t1 = now_ns();
    {
      ScopedSpan span(tr, "routing.build", root.id());
      net.emplace(std::move(*g));
    }
    const std::uint64_t t2 = now_ns();
    engine(*net, root.id());
    const std::uint64_t t3 = now_ns();
    s.graph_s = static_cast<double>(t1 - t0) * 1e-9;
    s.routing_s = static_cast<double>(t2 - t1) * 1e-9;
    s.setup_s = static_cast<double>(t2 - t0) * 1e-9;
    s.engine_s = static_cast<double>(t3 - t2) * 1e-9;
    s.ttr_s = static_cast<double>(t3 - t0) * 1e-9;
  }
  return std::move(*net);
}

void report_sim_e2e(Report& r, const std::vector<SimSample>& untraced,
                    double peak_rss) {
  std::vector<double> work, ttrs;
  for (const SimSample& s : untraced) {
    work.push_back(s.scan_packets / s.ttr_s);
    ttrs.push_back(s.ttr_s);
  }
  r.e2e["setup_s"] = median_of(untraced, &SimSample::setup_s);
  r.e2e["time_to_result_s"] = median(ttrs);
  r.e2e["work_per_s"] = median(work);
  r.e2e["peak_rss_mib"] = peak_rss;
  r.show("scan_packets_per_s", r.e2e["work_per_s"], "1/s");
  r.note(fmt_list("time_to_result_s per untraced iteration", ttrs));
}

void report_sim_layers(Report& r, const std::vector<SimSample>& traced,
                       const std::vector<SimSample>& untraced,
                       const dq::sim::PerfCounters& counters,
                       const Network& net) {
  const SimSample& m = median_sample(traced, &SimSample::ttr_s);
  const double n = static_cast<double>(net.num_nodes());
  r.layer["graph.build_s"] = m.graph_s;
  r.layer["routing.build_s"] = m.routing_s;
  // Tree routing keeps no pair table.
  r.layer["routing.pairs"] = net.has_routing_table() ? n * n : 0.0;
  r.layer["routing.table_mib"] = routing_table_mib(net);
  r.layer["engine.run_s"] = m.engine_s;
  r.layer["engine.run_max_s"] = m.run_max_s;
  r.layer["engine.emit_s"] = m.emit_s;
  r.layer["engine.apply_s"] = m.apply_s;
  r.layer["engine.merge_s"] = m.merge_s;
  r.layer["engine.record_s"] = m.record_s;
  r.layer["engine.self_s"] = m.engine_self_s;
  r.layer["engine.ticks"] = static_cast<double>(counters.ticks);
  r.layer["engine.packets_forwarded"] =
      static_cast<double>(counters.packets_forwarded);
  r.layer["engine.link_hops"] = static_cast<double>(counters.link_hops);
  r.layer["engine.queue_events"] = static_cast<double>(counters.queue_events);
  r.layer["engine.scan_packets"] = m.scan_packets;
  r.layer["engine.ever_infected"] = m.ever_infected;
  r.layer["remainder_s"] = m.ttr_s - m.graph_s - m.routing_s - m.emit_s -
                           m.apply_s - m.merge_s - m.record_s -
                           m.engine_self_s;
  report_overhead(r, median_of(untraced, &SimSample::ttr_s), m.ttr_s);
}

}  // namespace

void run_sim_routed(const Options& o, Report& r, Tracer& tracer) {
  const std::size_t n = o.tiny ? 200 : 3000;
  const std::size_t runs = o.tiny ? 2 : 10;
  const std::size_t parallelism = std::min<std::size_t>(o.nproc, 4);
  const std::vector<Deployment> deployments = fig4_deployments(o.seed);

  std::vector<SimSample> untraced, traced;
  std::vector<std::vector<double>> first_curves;
  dq::sim::PerfCounters counters;
  std::optional<Network> net;
  double peak_before_checks = 0.0;
  bool deterministic = true, load_oracle = true;

  measured_loop(o, o.trace ? 1 : 3, [&](bool t, std::size_t index) {
    Tracer* tr = t ? &tracer : nullptr;
    if (t) tracer.set_run(static_cast<int>(index));
    SimSample s;
    std::vector<std::vector<double>> curves;
    dq::sim::PerfCounters iter_counters;
    net.reset();
    net.emplace(timed_iteration(o.seed, n, tr, s, [&](const Network& nw,
                                                       int root) {
      for (const Deployment& d : deployments) {
        ScopedSpan span(tr, "engine.run_many", root);
        dq::obs::MultiRunSink sink(runs, /*ring_capacity=*/0);
        const dq::sim::AveragedResult res =
            dq::sim::run_many(nw, d.config, runs, parallelism, &sink);
        curves.push_back(res.ever_infected.values());
        iter_counters += res.perf_counters;
        s.run_max_s = std::max(s.run_max_s, res.perf_max_run_seconds);
        s.scan_packets += static_cast<double>(
            counter_value(sink.metrics(), "sim.scan_packets"));
        s.ever_infected += static_cast<double>(
            counter_value(sink.metrics(), "sim.infections"));
      }
    }));
    s.engine_self_s = s.engine_s;
    (t ? traced : untraced).push_back(s);
    counters = iter_counters;
    peak_before_checks = std::max(peak_before_checks, peak_rss_mib());
    r.attempted += runs * deployments.size();

    // Checks, outside the timed region.
    if (first_curves.empty()) {
      first_curves = curves;
      std::uint64_t expected = distance_sum(*net);
      if (o.corrupt == "link_load") expected += 1;
      load_oracle = net->total_link_load() == expected;
    } else {
      deterministic &= curves == first_curves;
    }
  });

  if (o.corrupt == "curve" && !first_curves[0].empty())
    first_curves[0].back() = -1.0;
  bool curves_monotone = true;
  for (const auto& c : first_curves) curves_monotone &= monotone(c);
  r.check(load_oracle, "total_link_load equals the sum of pair distances");
  r.check(curves_monotone, "averaged ever-infected curves are monotone");
  r.check(deterministic, "every iteration returns the same curves");

  report_sim_e2e(r, untraced, peak_before_checks);
  r.note("graph " + std::to_string(n) + " nodes, " + std::to_string(runs) +
         " runs per deployment, parallelism " + std::to_string(parallelism));
  if (o.trace) report_sim_layers(r, traced, untraced, counters, *net);
}

void run_sim_scale(const Options& o, Report& r, Tracer& tracer) {
  const std::size_t n = o.tiny ? 20000 : 1000000;
  const std::size_t shards = std::min<std::size_t>(o.nproc, 4);
  SimulationConfig config;
  config.worm.contact_rate = 0.8;
  // A thousand seeds make the growth phase, and so the work per run,
  // nearly the same for every seed.
  config.worm.initial_infected = 1000;
  // By tick 30 the outbreak has saturated. Running to a fixed horizon,
  // not to the last infection, keeps the random time of that infection
  // out of the work per seed.
  config.max_ticks = 30.0;
  config.stop_when_saturated = false;
  config.seed = mix(o.seed ^ 0x7363616c652d7369ULL);

  std::vector<SimSample> untraced, traced;
  std::optional<Network> net;
  std::optional<dq::sim::RunResult> first;
  double peak_before_checks = 0.0;
  bool deterministic = true;

  measured_loop(o, o.trace ? 1 : 3, [&](bool t, std::size_t index) {
    Tracer* tr = t ? &tracer : nullptr;
    if (t) tracer.set_run(static_cast<int>(index));
    net.reset();  // one million-node network alive at a time
    SimSample s;
    dq::obs::SpanBuffer spans("sim", std::size_t{1} << 16);
    dq::obs::Sink sink;
    if (t) sink.spans = &spans;
    std::optional<dq::sim::RunResult> result;
    int engine_id = -1;
    net.emplace(timed_iteration(o.seed, n, tr, s, [&](const Network& nw,
                                                       int root) {
      ScopedSpan span(tr, "engine.sharded_run", root);
      engine_id = span.id();
      dq::sim::ShardedSimulation sim(nw, config, shards, sink);
      result.emplace(sim.run());
    }));
    s.run_max_s = s.engine_s;
    s.scan_packets = static_cast<double>(result->total_scan_packets);
    s.ever_infected = static_cast<double>(result->final_ever_infected_count);
    if (t) {
      // The engine's own phase spans become children of the run span.
      for (const dq::obs::SpanRecord& sr : spans.spans()) {
        tracer.add(std::string("engine.") + sr.name, engine_id, sr.start_ns,
                   sr.start_ns + sr.dur_ns, sr.dur_ns, 1);
        const double sec = static_cast<double>(sr.dur_ns) * 1e-9;
        const std::string name = sr.name;
        if (name == "emit") s.emit_s += sec;
        else if (name == "apply") s.apply_s += sec;
        else if (name == "merge_emit" || name == "merge_apply") s.merge_s += sec;
        else if (name == "record") s.record_s += sec;
      }
      s.engine_self_s = static_cast<double>(tracer.self_ns(engine_id)) * 1e-9;
    }
    (t ? traced : untraced).push_back(s);
    peak_before_checks = std::max(peak_before_checks, peak_rss_mib());
    r.attempted += 1;
    if (!first)
      first = std::move(result);
    else
      deterministic &=
          result->perf.ticks == first->perf.ticks &&
          result->final_ever_infected_count ==
              first->final_ever_infected_count &&
          result->total_scan_packets == first->total_scan_packets;
  });

  // Check, outside the timed region: one shard gives the same outbreak.
  {
    dq::sim::ShardedSimulation reference(*net, config, 1);
    const dq::sim::RunResult ref = reference.run();
    std::uint64_t scan = first->total_scan_packets;
    if (o.corrupt == "scan_packets") scan += 1;
    r.check(ref.perf.ticks == first->perf.ticks &&
                ref.final_ever_infected_count ==
                    first->final_ever_infected_count &&
                ref.total_scan_packets == scan,
            "ticks, ever-infected and scan packets equal a 1-shard run");
    r.check(deterministic, "every iteration returns the same outbreak");
    r.check(first->final_ever_infected_count > 0,
            "the outbreak infects at least one node");
  }

  report_sim_e2e(r, untraced, peak_before_checks);
  r.note("graph " + std::to_string(n) + " nodes, " + std::to_string(shards) +
         " shards, " + std::to_string(first->perf.ticks) + " ticks, " +
         std::to_string(first->total_scan_packets) + " scan packets, " +
         std::to_string(first->final_ever_infected_count) + " ever infected");
  if (o.trace) report_sim_layers(r, traced, untraced, first->perf, *net);
}

}  // namespace perfbench
