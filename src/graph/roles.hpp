// Node role designation.
//
// Section 5.4: "we designate the top 5% and 10% of nodes with the most
// number of connections as backbone and edge routers respectively. The
// remaining nodes are end hosts."
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace dq::graph {

enum class NodeRole : std::uint8_t { kHost, kEdgeRouter, kBackboneRouter };

/// Assigns roles by degree rank: the `backbone_fraction` highest-degree
/// nodes become backbone routers, the next `edge_fraction` become edge
/// routers, the rest are hosts. Fractions must be non-negative and sum
/// to <= 1. At least one node is left as a host.
struct RoleAssignment {
  std::vector<NodeRole> role;           // per node
  std::vector<NodeId> backbone;         // ids, descending degree
  std::vector<NodeId> edge;             // ids, descending degree
  std::vector<NodeId> hosts;            // ids, ascending

  std::size_t count(NodeRole r) const;
  /// Indicator vector over nodes for RoutingTable::path_coverage.
  std::vector<char> indicator(NodeRole r) const;
};

RoleAssignment assign_roles(const Graph& g, double backbone_fraction = 0.05,
                            double edge_fraction = 0.10);

class RoutingTable;

/// Alternative designation: rank nodes by routing betweenness (how
/// many source-destination paths transit them) instead of degree. On
/// power-law graphs the two mostly agree at the top, but betweenness
/// also promotes low-degree cut vertices that carry whole regions'
/// traffic — see bench/ablation_backbone_selection. Throws
/// std::invalid_argument when `routing` was built on a graph of another
/// size.
RoleAssignment assign_roles_by_transit(const Graph& g,
                                       const RoutingTable& routing,
                                       double backbone_fraction = 0.05,
                                       double edge_fraction = 0.10);

}  // namespace dq::graph
