// Shortest-path routing over a topology.
//
// The paper's simulator routes infection packets over shortest paths
// (Section 5.4) and weights each rate-limited link "proportional to the
// number of routing table entries the link occupies". RoutingTable
// precomputes BFS next-hops toward every destination and, in the same
// pass, folds each destination's in-tree leaves first to count how many
// ordered source–destination pairs route through every hop (the
// routing entry count the paper multiplies into the link rate).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace dq::graph {

/// Canonical undirected link key (ordered endpoints).
struct LinkKey {
  NodeId a;
  NodeId b;
  friend bool operator==(const LinkKey&, const LinkKey&) = default;
};

inline LinkKey make_link_key(NodeId x, NodeId y) {
  return x < y ? LinkKey{x, y} : LinkKey{y, x};
}

/// All-pairs BFS next-hop table with deterministic tie-breaking (the
/// lowest-id neighbor on a shortest path wins).
class RoutingTable {
 public:
  /// Receives one routed hop `from → next` toward some destination and
  /// the number of ordered (src, destination) pairs whose path takes it
  /// (the size of from's subtree in the destination's in-tree). Summed
  /// per link, these are the paper's routing-entry link loads.
  using HopLoad =
      std::function<void(NodeId from, NodeId next, std::uint64_t pairs)>;

  /// Builds the table with one BFS per destination plus a leaves-first
  /// fold over its in-tree; O(V * (V + E)) time, calling `on_hop` once
  /// per ordered (from, destination) pair with from != destination.
  /// Throws if the graph is disconnected (every experiment in the paper
  /// uses connected graphs).
  explicit RoutingTable(const Graph& g, const HopLoad& on_hop = {});

  std::size_t num_nodes() const noexcept { return n_; }

  /// Hop distance between two nodes.
  std::uint32_t distance(NodeId from, NodeId to) const {
    return dist_.at(index(from, to));
  }

  /// The neighbor of `from` on the shortest path toward `to`;
  /// nullopt when from == to.
  std::optional<NodeId> next_hop(NodeId from, NodeId to) const;

  /// Unchecked next hop for hot loops: no bounds check, no optional.
  /// Precondition: from and to are in range and from != to.
  NodeId next_hop_raw(NodeId from, NodeId to) const noexcept {
    return next_[index(from, to)];
  }

  /// Full path from `from` to `to`, inclusive of both endpoints.
  /// Throws std::out_of_range on an id >= num_nodes().
  std::vector<NodeId> path(NodeId from, NodeId to) const;

  /// Fraction of ordered (src,dst) pairs, src != dst, both in `hosts`,
  /// whose routed path passes through at least one node in `via`
  /// (excluding the endpoints themselves). This is the α of Section 5.3:
  /// the portion of IP-to-IP paths covered by backbone rate limiting.
  /// Throws std::invalid_argument unless via.size() == num_nodes(), and
  /// std::out_of_range on a host id >= num_nodes().
  double path_coverage(const std::vector<NodeId>& hosts,
                       const std::vector<char>& via) const;

  /// For each node, the number of ordered (src,dst) pairs whose routed
  /// path transits it (endpoints excluded) — unnormalized routing
  /// betweenness. The natural answer to "which nodes should carry the
  /// backbone filters?", as opposed to the paper's degree-rank rule.
  const std::vector<std::uint64_t>& node_transit_loads() const noexcept {
    return transit_;
  }

 private:
  std::size_t index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * n_ + to;
  }

  std::size_t n_ = 0;
  std::vector<std::uint32_t> dist_;      // n*n hop counts
  std::vector<NodeId> next_;             // n*n next hops (self when from==to)
  std::vector<std::uint64_t> transit_;   // per-node transit pair counts
};

}  // namespace dq::graph
