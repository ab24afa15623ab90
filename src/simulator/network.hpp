// Network: the static substrate a worm runs over — topology, routing,
// node roles, optional subnet structure, and link indexing.
//
// Routing has two backends chosen by memory budget:
//   * all-pairs — the BFS next-hop table plus (on small nets) a dense
//     per-(at,dest) hop-link table; exact shortest paths, O(N²) memory,
//     shared across every run of a configuration.
//   * shortest-path tree — above the all-pairs budget the network keeps
//     only a BFS tree rooted at the highest-degree node (parent
//     pointers, Euler-tour intervals, a child index), so a million-node
//     graph routes in O(N) memory: up to the lowest common ancestor,
//     then down. Tree paths are exact on trees and stars and a
//     hub-biased approximation elsewhere — the trade the scale tier
//     accepts for bounded memory.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/builders.hpp"
#include "graph/graph.hpp"
#include "graph/roles.hpp"
#include "graph/routing.hpp"

namespace dq::sim {

using graph::NodeId;

/// Memory budgets steering which routing structures a Network builds.
/// Defaults keep every historical configuration (≤ ~11.5k nodes for
/// the all-pairs table) on the exact shortest-path backend while
/// letting million-node graphs construct in bounded memory. Tests
/// shrink the budgets to force a specific backend on small graphs.
struct NetworkOptions {
  /// Budget for the all-pairs routing table (8 bytes per ordered node
  /// pair: distance + next hop). Above it, tree routing.
  std::size_t routing_table_bytes = std::size_t{1} << 30;
  /// Budget for the dense per-(at,dest) first-link table (4 bytes per
  /// ordered pair); only ever built when the all-pairs table exists.
  std::size_t dense_hop_table_bytes = std::size_t{1} << 30;
};

/// Immutable network substrate shared across simulation runs.
class Network {
 public:
  /// Wraps an arbitrary connected graph. Roles are assigned by degree
  /// rank per the paper (top backbone_fraction backbone, next
  /// edge_fraction edge routers).
  explicit Network(graph::Graph g, double backbone_fraction = 0.05,
                   double edge_fraction = 0.10, NetworkOptions options = {});

  /// Wraps a subnet topology: gateways become the edge routers, the
  /// backbone interconnect links are the backbone, members keep their
  /// subnet ids for local-preferential scanning.
  explicit Network(graph::SubnetTopology topo, NetworkOptions options = {});

  /// Wraps a graph with an explicit role assignment (e.g. the
  /// betweenness-based designation of assign_roles_by_transit).
  Network(graph::Graph g, graph::RoleAssignment roles,
          NetworkOptions options = {});

  const graph::Graph& graph() const noexcept { return graph_; }

  /// True when the all-pairs table was built (node count within
  /// NetworkOptions::routing_table_bytes); false on tree-routed nets.
  bool has_routing_table() const noexcept { return routing_ != nullptr; }

  /// The all-pairs table. Throws std::logic_error on tree-routed
  /// networks — callers needing exact path analytics (path_coverage,
  /// node_transit_loads) must check has_routing_table() first.
  const graph::RoutingTable& routing() const;

  const graph::RoleAssignment& roles() const noexcept { return roles_; }

  std::size_t num_nodes() const noexcept { return graph_.num_nodes(); }
  std::size_t num_links() const noexcept { return links_.size(); }

  /// Link endpoints by link index.
  const graph::LinkKey& link(std::size_t index) const {
    return links_.at(index);
  }

  /// Index of the undirected link {a,b}; throws if absent.
  std::size_t link_index(NodeId a, NodeId b) const;

  /// One routed hop: the next node toward a destination and the link
  /// crossed to reach it.
  struct HopStep {
    NodeId next;
    std::uint32_t link;
  };

  /// Next hop and traversed link from `at` toward `dest` in a single
  /// lookup — the simulator's per-hop fast path. On networks small
  /// enough for the dense table (see build_routing) this is one array
  /// read; with the all-pairs table it is a next-hop read plus a
  /// binary search over the node's adjacency row; on tree-routed
  /// networks it is an Euler-interval test plus a child binary search.
  /// Precondition: at != dest, both in range.
  HopStep hop_toward(NodeId at, NodeId dest) const noexcept {
    if (!hop_link_.empty()) {
      const std::uint32_t l =
          hop_link_[static_cast<std::size_t>(at) * graph_.num_nodes() + dest];
      const graph::LinkKey& key = links_[l];
      return {key.a == at ? key.b : key.a, l};
    }
    if (routing_ != nullptr) {
      const NodeId next = routing_->next_hop_raw(at, dest);
      return {next, adj_link(at, next)};
    }
    return tree_hop(at, dest);
  }

  /// Routing load of a link: ordered path count crossing it (all-pairs
  /// backend) or the tree-edge pair count 2·s·(N−s) (tree backend,
  /// where s is the child-side subtree size; non-tree links carry 0).
  std::uint64_t link_load(std::size_t index) const {
    return link_loads_.at(index);
  }

  /// Sum of link_load over all links — the normalizer for the paper's
  /// routing-entry link-weight rule, available on both backends.
  std::uint64_t total_link_load() const noexcept { return total_link_load_; }

  /// Mean link load across all links (>= 1 path on connected graphs).
  double mean_link_load() const noexcept { return mean_link_load_; }

  /// Subnet id of a node, if the topology has subnets.
  std::optional<std::size_t> subnet_of(NodeId n) const;

  /// Members of a subnet (empty when no subnets).
  const std::vector<NodeId>& subnet_members(std::size_t subnet) const;

  /// Borrowable views of the subnet structure, owned by the Network
  /// for its lifetime (both empty when the topology has no subnets).
  /// worm::TargetSelector borrows these instead of copying O(N) state
  /// per simulation construction.
  const std::vector<std::size_t>& subnet_ids() const noexcept {
    return subnet_of_;
  }
  const std::vector<std::vector<NodeId>>& subnet_lists() const noexcept {
    return subnet_members_;
  }

  bool has_subnets() const noexcept { return !subnet_members_.empty(); }
  std::size_t num_subnets() const noexcept { return subnet_members_.size(); }

  /// True if the link is incident to a node of the given role.
  bool link_touches_role(std::size_t index, graph::NodeRole role) const;

  /// True if the link belongs to the backbone: it touches a backbone
  /// router, or — on gateway-interconnected subnet topologies, which
  /// have no separate backbone nodes — both endpoints are edge routers.
  bool link_is_backbone(std::size_t index) const;

  /// True if the link is subject to edge-router rate limiting (incident
  /// to an edge router).
  bool link_is_edge(std::size_t index) const {
    return link_touches_role(index, graph::NodeRole::kEdgeRouter);
  }

 private:
  /// Entry of the per-node adjacency rows: a neighbor and the index of
  /// the link reaching it. Rows are sorted by neighbor id.
  struct AdjEntry {
    NodeId neighbor;
    std::uint32_t link;
  };

  /// Numbers the links, builds the CSR rows, then the routing backend
  /// with its link loads and (on small nets) the dense hop-link table.
  void build_routing();
  void build_tree_routing();

  /// Link index between adjacent nodes via the CSR rows; noexcept fast
  /// path that assumes the link exists (adjacency comes from routing).
  /// A violated precondition used to read past the row end (or the
  /// whole array) silently; debug builds die on the assert instead.
  std::uint32_t adj_link(NodeId a, NodeId b) const noexcept {
    std::size_t lo = adj_offset_[a];
    const std::size_t row_end = adj_offset_[a + 1];
    std::size_t hi = row_end;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (adj_[mid].neighbor < b)
        lo = mid + 1;
      else
        hi = mid;
    }
    assert(lo < row_end && adj_[lo].neighbor == b &&
           "Network::adj_link: nodes are not adjacent");
    return adj_[lo].link;
  }

  /// Tree-backend hop: descend when dest sits in at's subtree (Euler
  /// interval test + binary search over at's children, sorted by
  /// tour-entry time), otherwise climb to the parent.
  HopStep tree_hop(NodeId at, NodeId dest) const noexcept {
    const std::uint32_t d = tree_tin_[dest];
    if (d >= tree_tin_[at] && d < tree_tout_[at]) {
      std::size_t lo = tree_child_offset_[at];
      std::size_t hi = tree_child_offset_[at + 1];
      // Last child whose tour entry is <= dest's (children partition
      // the subtree interval, so that child contains dest).
      while (lo + 1 < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (tree_tin_[tree_children_[mid]] <= d)
          lo = mid;
        else
          hi = mid;
      }
      const NodeId c = tree_children_[lo];
      return {c, tree_parent_link_[c]};
    }
    return {tree_parent_[at], tree_parent_link_[at]};
  }

  graph::Graph graph_;
  NetworkOptions options_;
  std::unique_ptr<graph::RoutingTable> routing_;
  graph::RoleAssignment roles_;
  std::vector<graph::LinkKey> links_;
  std::vector<std::uint64_t> link_loads_;
  std::uint64_t total_link_load_ = 0;
  double mean_link_load_ = 0.0;
  /// CSR adjacency (both directions of every link), rows sorted by
  /// neighbor id: adj_[adj_offset_[v] .. adj_offset_[v+1]).
  std::vector<std::size_t> adj_offset_;
  std::vector<AdjEntry> adj_;
  /// Dense per-(at,dest) link table (empty above the memory cap): the
  /// link crossed first when routing from `at` to `dest`.
  std::vector<std::uint32_t> hop_link_;
  /// Tree-routing state (built only when the all-pairs table is over
  /// budget). parent of the root is the root itself; tout = tin +
  /// subtree size, so [tin, tout) is the node's Euler interval.
  NodeId tree_root_ = 0;
  std::vector<NodeId> tree_parent_;
  std::vector<std::uint32_t> tree_parent_link_;
  std::vector<std::uint32_t> tree_tin_;
  std::vector<std::uint32_t> tree_tout_;
  std::vector<std::size_t> tree_child_offset_;
  std::vector<NodeId> tree_children_;
  std::vector<std::size_t> subnet_of_;  // empty when no subnets
  std::vector<std::vector<NodeId>> subnet_members_;
};

}  // namespace dq::sim
