// Declarative job descriptions for the campaign engine.
//
// A job is the unit of batching, caching, and scheduling: either one
// multi-run simulation (topology + SimulationConfig + run count) or
// one closed-form analytical figure from the experiment registry.
// Every knob that can change the job's output is part of JobConfig and
// is canonically serialized, so the content hash fully identifies the
// result — equal hash ⇒ equal artifact bytes.
//
// Determinism: a simulation job runs on its config's own `seed`, never
// on anything derived from scheduling. Results are therefore
// bit-identical regardless of thread count, cache state, or the order
// jobs execute in, and the jobs of one figure, which share a seed,
// share their random numbers.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/json.hpp"
#include "simulator/config.hpp"
#include "simulator/network.hpp"

namespace dq::campaign {

/// Reconstructible network description. Building the Network from the
/// spec (rather than passing one in) keeps jobs self-contained: the
/// cache key covers the topology, and a scheduler thread can build it
/// wherever the job lands. Each job rebuilds its network — building is
/// deterministic in build_seed and cheap next to the runs it feeds.
struct TopologySpec {
  enum class Kind : std::uint8_t { kStar, kPowerLaw, kSubnets };
  Kind kind = Kind::kPowerLaw;
  /// Node count (kStar / kPowerLaw).
  std::size_t nodes = 1000;
  /// Preferential-attachment links per node (kPowerLaw).
  std::size_t ba_links = 2;
  /// Subnet layout (kSubnets).
  std::size_t num_subnets = 25;
  std::size_t hosts_per_subnet = 40;
  /// Degree-rank role cutoffs (kStar / kPowerLaw; see sim::Network).
  double backbone_fraction = 0.05;
  double edge_fraction = 0.10;
  /// Seed for randomized builders (kPowerLaw / kSubnets).
  std::uint64_t build_seed = 42;
};

/// Builds the network a spec describes. Throws std::invalid_argument
/// on nonsensical sizes.
sim::Network build_network(const TopologySpec& spec);

struct JobConfig {
  enum class Kind : std::uint8_t { kSimulation, kAnalyticalFigure };
  Kind kind = Kind::kSimulation;

  // --- kSimulation ---
  TopologySpec topology;
  sim::SimulationConfig sim;
  /// Independent runs averaged by the job (the paper uses 10).
  std::size_t runs = 10;

  // --- kAnalyticalFigure ---
  /// Registry id understood by core::analytical_figure ("fig1a", ...).
  std::string figure_id;
};

/// Canonical JSON for a job config: every output-affecting field, in a
/// fixed key order, with shortest-round-trip numbers. This string is
/// the content-hash input AND is embedded in the artifact, so a cached
/// result is self-describing.
JsonValue job_config_to_json(const JobConfig& config);

/// FNV-1a over job_config_to_json(config).dump().
std::uint64_t job_hash(const JobConfig& config);

}  // namespace dq::campaign
