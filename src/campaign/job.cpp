#include "campaign/job.hpp"

#include <stdexcept>

#include "graph/builders.hpp"
#include "stats/hash.hpp"
#include "stats/rng.hpp"

namespace dq::campaign {

sim::Network build_network(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologySpec::Kind::kStar:
      if (spec.nodes < 2)
        throw std::invalid_argument("TopologySpec: star needs >= 2 nodes");
      return sim::Network(graph::make_star(spec.nodes),
                          spec.backbone_fraction, spec.edge_fraction);
    case TopologySpec::Kind::kPowerLaw: {
      if (spec.nodes < spec.ba_links + 1)
        throw std::invalid_argument("TopologySpec: too few power-law nodes");
      Rng rng(spec.build_seed);
      return sim::Network(
          graph::make_barabasi_albert(spec.nodes, spec.ba_links, rng),
          spec.backbone_fraction, spec.edge_fraction);
    }
    case TopologySpec::Kind::kSubnets: {
      if (spec.num_subnets == 0 || spec.hosts_per_subnet == 0)
        throw std::invalid_argument("TopologySpec: empty subnet layout");
      Rng rng(spec.build_seed);
      return sim::Network(graph::make_subnet_topology(
          spec.num_subnets, spec.hosts_per_subnet, rng));
    }
  }
  throw std::invalid_argument("TopologySpec: unknown kind");
}

namespace {

const char* to_string(TopologySpec::Kind kind) {
  switch (kind) {
    case TopologySpec::Kind::kStar: return "star";
    case TopologySpec::Kind::kPowerLaw: return "powerlaw";
    case TopologySpec::Kind::kSubnets: return "subnets";
  }
  return "?";
}

JsonValue topology_to_json(const TopologySpec& t) {
  JsonValue o = JsonValue::object();
  o.set("kind", JsonValue::str(to_string(t.kind)));
  o.set("nodes", JsonValue::integer(t.nodes));
  o.set("ba_links", JsonValue::integer(t.ba_links));
  o.set("num_subnets", JsonValue::integer(t.num_subnets));
  o.set("hosts_per_subnet", JsonValue::integer(t.hosts_per_subnet));
  o.set("backbone_fraction", JsonValue::number(t.backbone_fraction));
  o.set("edge_fraction", JsonValue::number(t.edge_fraction));
  o.set("build_seed", JsonValue::integer(t.build_seed));
  return o;
}

JsonValue sim_config_to_json(const sim::SimulationConfig& c) {
  JsonValue o = JsonValue::object();
  {
    JsonValue w = JsonValue::object();
    w.set("contact_rate", JsonValue::number(c.worm.contact_rate));
    w.set("filtered_contact_rate",
          JsonValue::number(c.worm.filtered_contact_rate));
    w.set("selection",
          JsonValue::integer(static_cast<std::uint64_t>(c.worm.selection)));
    w.set("local_bias", JsonValue::number(c.worm.local_bias));
    w.set("hitlist_size", JsonValue::integer(c.worm.hitlist_size));
    w.set("initial_infected", JsonValue::integer(c.worm.initial_infected));
    w.set("hit_probability", JsonValue::number(c.worm.hit_probability));
    o.set("worm", std::move(w));
  }
  {
    JsonValue d = JsonValue::object();
    d.set("host_filter_fraction",
          JsonValue::number(c.deployment.host_filter_fraction));
    d.set("edge_router_limited",
          JsonValue::boolean(c.deployment.edge_router_limited));
    d.set("backbone_limited",
          JsonValue::boolean(c.deployment.backbone_limited));
    d.set("base_link_capacity",
          JsonValue::number(c.deployment.base_link_capacity));
    d.set("weight_by_routing_load",
          JsonValue::boolean(c.deployment.weight_by_routing_load));
    d.set("min_link_capacity",
          JsonValue::number(c.deployment.min_link_capacity));
    {
      JsonValue cap;  // null when absent
      if (c.deployment.node_forward_cap) {
        cap = JsonValue::array();
        cap.push_back(JsonValue::integer(c.deployment.node_forward_cap->first));
        cap.push_back(
            JsonValue::integer(c.deployment.node_forward_cap->second));
      }
      d.set("node_forward_cap", std::move(cap));
    }
    o.set("deployment", std::move(d));
  }
  {
    JsonValue r = JsonValue::object();
    r.set("kind",
          JsonValue::integer(static_cast<std::uint64_t>(c.response.kind)));
    r.set("reaction_time", JsonValue::number(c.response.reaction_time));
    r.set("filters_everywhere",
          JsonValue::boolean(c.response.filters_everywhere));
    r.set("start_on_detection",
          JsonValue::boolean(c.response.start_on_detection));
    o.set("response", std::move(r));
  }
  {
    JsonValue d = JsonValue::object();
    d.set("enabled", JsonValue::boolean(c.detector.enabled));
    d.set("observe_probability",
          JsonValue::number(c.detector.observe_probability));
    d.set("threshold", JsonValue::integer(c.detector.threshold));
    o.set("detector", std::move(d));
  }
  {
    JsonValue i = JsonValue::object();
    i.set("enabled", JsonValue::boolean(c.immunization.enabled));
    i.set("start_at_infected_fraction",
          JsonValue::number(c.immunization.start_at_infected_fraction));
    i.set("start_at_tick",
          c.immunization.start_at_tick
              ? JsonValue::number(*c.immunization.start_at_tick)
              : JsonValue());
    i.set("start_on_detection",
          JsonValue::boolean(c.immunization.start_on_detection));
    i.set("rate", JsonValue::number(c.immunization.rate));
    i.set("patch_susceptibles",
          JsonValue::boolean(c.immunization.patch_susceptibles));
    o.set("immunization", std::move(i));
  }
  o.set("legit_rate_per_node", JsonValue::number(c.legit.rate_per_node));
  {
    JsonValue p = JsonValue::object();
    p.set("enabled", JsonValue::boolean(c.predator.enabled));
    p.set("start_tick", JsonValue::number(c.predator.start_tick));
    p.set("initial", JsonValue::integer(c.predator.initial));
    p.set("contact_rate", JsonValue::number(c.predator.contact_rate));
    p.set("patch_delay", JsonValue::number(c.predator.patch_delay));
    o.set("predator", std::move(p));
  }
  {
    JsonValue q = JsonValue::object();
    q.set("enabled", JsonValue::boolean(c.quarantine.enabled));
    q.set("start_on_detection",
          JsonValue::boolean(c.quarantine.start_on_detection));
    q.set("window", JsonValue::number(c.quarantine.detector.window));
    q.set("contact_rate_threshold",
          JsonValue::number(c.quarantine.detector.contact_rate_threshold));
    q.set("distinct_dest_threshold",
          JsonValue::number(c.quarantine.detector.distinct_dest_threshold));
    q.set("failure_ratio_threshold",
          JsonValue::number(c.quarantine.detector.failure_ratio_threshold));
    q.set("failure_min_attempts",
          JsonValue::integer(c.quarantine.detector.failure_min_attempts));
    q.set("strikes_to_quarantine",
          JsonValue::integer(c.quarantine.policy.strikes_to_quarantine));
    q.set("base_period", JsonValue::number(c.quarantine.policy.base_period));
    q.set("escalation", JsonValue::number(c.quarantine.policy.escalation));
    q.set("max_period", JsonValue::number(c.quarantine.policy.max_period));
    q.set("treatment",
          JsonValue::integer(
              static_cast<std::uint64_t>(c.quarantine.policy.treatment)));
    q.set("throttle_rate",
          JsonValue::number(c.quarantine.policy.throttle_rate));
    o.set("quarantine", std::move(q));
  }
  o.set("max_ticks", JsonValue::number(c.max_ticks));
  o.set("stop_when_saturated", JsonValue::boolean(c.stop_when_saturated));
  o.set("seed", JsonValue::integer(c.seed));
  return o;
}

}  // namespace

JsonValue job_config_to_json(const JobConfig& config) {
  JsonValue o = JsonValue::object();
  // Schema version: bump when the canonical form changes or when the
  // same config starts producing different output, so stale cache
  // artifacts can never alias a new hash. Schema 2: simulation jobs
  // run on their config's own seed instead of a hash-derived one.
  o.set("schema", JsonValue::integer(2));
  if (config.kind == JobConfig::Kind::kAnalyticalFigure) {
    o.set("kind", JsonValue::str("analytical"));
    o.set("figure_id", JsonValue::str(config.figure_id));
    return o;
  }
  o.set("kind", JsonValue::str("simulation"));
  o.set("topology", topology_to_json(config.topology));
  o.set("sim", sim_config_to_json(config.sim));
  o.set("runs", JsonValue::integer(config.runs));
  return o;
}

std::uint64_t job_hash(const JobConfig& config) {
  return fnv1a64(job_config_to_json(config).dump());
}

}  // namespace dq::campaign
