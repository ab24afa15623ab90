#include "graph/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "graph/builders.hpp"
#include "graph/roles.hpp"
#include "simulator/network.hpp"

namespace dq::graph {
namespace {

TEST(RoutingTable, RejectsDisconnected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(RoutingTable{g}, std::invalid_argument);
}

TEST(RoutingTable, StarDistances) {
  const Graph g = make_star(5);
  const RoutingTable rt(g);
  EXPECT_EQ(rt.distance(0, 0), 0u);
  EXPECT_EQ(rt.distance(0, 3), 1u);
  EXPECT_EQ(rt.distance(1, 4), 2u);
}

TEST(RoutingTable, StarNextHopsGoThroughHub) {
  const Graph g = make_star(5);
  const RoutingTable rt(g);
  EXPECT_EQ(rt.next_hop(1, 4).value(), 0u);
  EXPECT_EQ(rt.next_hop(0, 4).value(), 4u);
  EXPECT_FALSE(rt.next_hop(2, 2).has_value());
}

TEST(RoutingTable, StarLinkLoads) {
  const Graph g = make_star(4);  // hub 0, leaves 1..3
  std::vector<std::uint64_t> load_by_leaf(4, 0);
  const RoutingTable rt(g, [&](NodeId from, NodeId next, std::uint64_t pairs) {
    const LinkKey key = make_link_key(from, next);
    ASSERT_EQ(key.a, 0u);  // every star link touches the hub
    load_by_leaf[key.b] += pairs;
  });
  // Ordered pairs: leaf<->leaf paths (3*2 = 6) cross two hub links each;
  // hub<->leaf (6 ordered) cross one. Each hub-leaf link carries:
  // 2 (to/from hub) + 2*2 (as transit for the other two leaves, both
  // directions) = 6.
  std::uint64_t total = 0;
  for (NodeId leaf = 1; leaf < 4; ++leaf) {
    EXPECT_EQ(load_by_leaf[leaf], 6u);
    total += load_by_leaf[leaf];
  }
  EXPECT_EQ(total, 18u);
}

TEST(RoutingTable, LinkLoadUnknownLinkThrows) {
  const Graph g = make_star(4);
  // The table reports no hop over a link the graph lacks...
  const RoutingTable rt(g, [](NodeId from, NodeId next, std::uint64_t) {
    EXPECT_NE(make_link_key(from, next), make_link_key(1, 2));
  });
  // ...and looking up that link's load throws.
  const sim::Network net(g, 0.25, 0.0);
  EXPECT_THROW(net.link_load(net.link_index(1, 2)), std::invalid_argument);
}

TEST(RoutingTable, PathEndpointsAndContinuity) {
  Rng rng(1);
  const Graph g = make_barabasi_albert(60, 2, rng);
  const RoutingTable rt(g);
  for (NodeId src : {0u, 17u, 42u}) {
    for (NodeId dst : {5u, 33u, 59u}) {
      const auto path = rt.path(src, dst);
      ASSERT_GE(path.size(), 1u);
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), dst);
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
      EXPECT_EQ(path.size(), rt.distance(src, dst) + 1u);
    }
  }
}

TEST(RoutingTable, RingDistancesAreMinimal) {
  const Graph g = make_ring(8);
  const RoutingTable rt(g);
  EXPECT_EQ(rt.distance(0, 4), 4u);
  EXPECT_EQ(rt.distance(0, 7), 1u);
  EXPECT_EQ(rt.distance(2, 6), 4u);
}

TEST(RoutingTable, PathCoverageHubCoversAllLeafPairs) {
  const Graph g = make_star(6);
  const RoutingTable rt(g);
  std::vector<char> via(6, 0);
  via[0] = 1;  // the hub
  const std::vector<NodeId> leaves = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(rt.path_coverage(leaves, via), 1.0);
}

TEST(RoutingTable, PathCoverageExcludesEndpoints) {
  const Graph g = make_star(6);
  const RoutingTable rt(g);
  std::vector<char> via(6, 0);
  via[1] = 1;  // a leaf can never be an intermediate node
  const std::vector<NodeId> leaves = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(rt.path_coverage(leaves, via), 0.0);
}

TEST(RoutingTable, PathCoveragePartial) {
  // Line: 0-1-2-3. Node 1 covers pairs (0,2),(0,3),(2,0),(3,0) among
  // endpoints {0,2,3}: pairs (0,2),(0,3) and reverses = 4 of 6.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const RoutingTable rt(g);
  std::vector<char> via(4, 0);
  via[1] = 1;
  EXPECT_DOUBLE_EQ(rt.path_coverage({0, 2, 3}, via), 4.0 / 6.0);
}

TEST(RoutingTable, PathCoverageValidatesViaSize) {
  const Graph g = make_star(4);
  const RoutingTable rt(g);
  EXPECT_THROW(rt.path_coverage({1, 2}, std::vector<char>(3, 0)),
               std::invalid_argument);
}

TEST(RoutingTable, PathCoverageRejectsOutOfRangeHost) {
  const Graph g = make_star(4);
  const RoutingTable rt(g);
  EXPECT_THROW(rt.path_coverage({1, 4}, std::vector<char>(4, 0)),
               std::out_of_range);
}

TEST(RoutingTable, PathRejectsOutOfRangeIds) {
  const Graph g = make_star(4);
  const RoutingTable rt(g);
  EXPECT_THROW(rt.path(4, 1), std::out_of_range);
  EXPECT_THROW(rt.path(1, 4), std::out_of_range);
}

TEST(RoutingTable, NodeTransitLoadsOnStar) {
  const Graph g = make_star(5);  // hub 0, leaves 1..4
  const RoutingTable rt(g);
  const auto loads = rt.node_transit_loads();
  // The hub transits every leaf-to-leaf ordered pair: 4*3 = 12.
  EXPECT_EQ(loads[0], 12u);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_EQ(loads[leaf], 0u);
}

TEST(RoutingTable, NodeTransitLoadsOnLine) {
  Graph g(4);  // 0-1-2-3
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const RoutingTable rt(g);
  const auto loads = rt.node_transit_loads();
  // Node 1 transits (0,2),(0,3),(2,0),(3,0) = 4; node 2 symmetric.
  EXPECT_EQ(loads[0], 0u);
  EXPECT_EQ(loads[1], 4u);
  EXPECT_EQ(loads[2], 4u);
  EXPECT_EQ(loads[3], 0u);
}

TEST(Roles, TransitAssignmentPicksTheHub) {
  const Graph g = make_star(20);
  const RoutingTable rt(g);
  const RoleAssignment roles =
      assign_roles_by_transit(g, rt, 1.0 / 20.0, 0.0);
  ASSERT_EQ(roles.backbone.size(), 1u);
  EXPECT_EQ(roles.backbone[0], 0u);
}

TEST(Roles, TransitAssignmentRejectsTableOfAnotherGraph) {
  const RoutingTable rt(make_star(5));
  EXPECT_THROW(assign_roles_by_transit(make_star(20), rt, 0.05, 0.0),
               std::invalid_argument);
}

TEST(Roles, TransitAndDegreeAgreeAtTheTopOfPowerLaw) {
  Rng rng(6);
  const Graph g = make_barabasi_albert(300, 2, rng);
  const RoutingTable rt(g);
  const RoleAssignment by_degree = assign_roles(g, 0.05, 0.0);
  const RoleAssignment by_transit =
      assign_roles_by_transit(g, rt, 0.05, 0.0);
  // The two top-15 sets overlap heavily on BA graphs.
  std::size_t common = 0;
  for (NodeId b : by_degree.backbone)
    if (by_transit.role[b] == NodeRole::kBackboneRouter) ++common;
  EXPECT_GE(common, by_degree.backbone.size() / 2);
}

TEST(RoutingTable, DeterministicTieBreaking) {
  // Square: 0-1, 1-3, 0-2, 2-3. Two equal paths 0->3; the lowest-id
  // first hop (1) must win deterministically.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const RoutingTable rt(g);
  EXPECT_EQ(rt.next_hop(0, 3).value(), 1u);
}

// The routing algorithms RoutingTable replaced, kept here as the oracle
// for its per-destination BFS and leaves-first fold: a BFS from every
// source over a std::deque that sorts each node's neighbors as it visits
// them, and a walk of every ordered pair's path for the loads.
struct ReferenceRouting {
  std::size_t n = 0;
  std::vector<std::uint32_t> dist;  // n*n, row = source
  std::vector<NodeId> next;         // n*n, row = source
  std::vector<std::uint64_t> transit;

  explicit ReferenceRouting(const Graph& g) : n(g.num_nodes()) {
    constexpr std::uint32_t kUnreachable =
        std::numeric_limits<std::uint32_t>::max();
    dist.assign(n * n, kUnreachable);
    next.assign(n * n, 0);
    std::vector<NodeId> sorted_neighbors;
    for (NodeId src = 0; src < n; ++src) {
      dist[src * n + src] = 0;
      next[src * n + src] = src;
      std::deque<NodeId> queue = {src};
      while (!queue.empty()) {
        const NodeId u = queue.front();
        queue.pop_front();
        sorted_neighbors.assign(g.neighbors(u).begin(), g.neighbors(u).end());
        std::sort(sorted_neighbors.begin(), sorted_neighbors.end());
        for (NodeId v : sorted_neighbors) {
          if (dist[src * n + v] != kUnreachable) continue;
          dist[src * n + v] = dist[src * n + u] + 1;
          next[src * n + v] = (u == src) ? v : next[src * n + u];
          queue.push_back(v);
        }
      }
    }
    transit.assign(n, 0);
    for (NodeId src = 0; src < n; ++src)
      for (NodeId dst = 0; dst < n; ++dst)
        for (NodeId cur = src; cur != dst;) {
          cur = next[cur * n + dst];
          if (cur != dst) ++transit[cur];
        }
  }

  /// Per-link ordered-pair counts, indexed like `net`'s links.
  std::vector<std::uint64_t> link_loads(const sim::Network& net) const {
    std::vector<std::uint64_t> loads(net.num_links(), 0);
    for (NodeId src = 0; src < n; ++src)
      for (NodeId dst = 0; dst < n; ++dst)
        for (NodeId cur = src; cur != dst;) {
          const NodeId nxt = next[cur * n + dst];
          ++loads[net.link_index(cur, nxt)];
          cur = nxt;
        }
    return loads;
  }
};

TEST(RoutingTable, FoldMatchesPerSourceBfsAndPathWalks) {
  std::vector<std::pair<std::string, Graph>> graphs;
  {
    Rng rng(11);
    graphs.emplace_back("ba", make_barabasi_albert(300, 2, rng));
  }
  {
    Rng rng(12);
    Graph g = make_waxman(200, 0.4, 0.2, rng);
    ensure_connected(g);
    graphs.emplace_back("waxman", std::move(g));
  }
  {
    Rng rng(13);
    Graph g = make_erdos_renyi(200, 0.02, rng);
    ensure_connected(g);
    graphs.emplace_back("erdos-renyi", std::move(g));
  }
  {
    Rng rng(14);
    graphs.emplace_back("subnets", make_subnet_topology(6, 12, rng).graph);
  }
  graphs.emplace_back("star", make_star(40));
  graphs.emplace_back("ring-even", make_ring(64));
  graphs.emplace_back("ring-odd", make_ring(101));

  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const ReferenceRouting ref(g);
    const sim::Network net(g);
    const RoutingTable& rt = net.routing();
    const auto n = static_cast<NodeId>(g.num_nodes());
    for (NodeId from = 0; from < n; ++from)
      for (NodeId to = 0; to < n; ++to) {
        ASSERT_EQ(rt.distance(from, to), ref.dist[from * n + to]);
        if (from != to) {
          ASSERT_EQ(rt.next_hop(from, to).value(), ref.next[from * n + to]);
        }
      }
    const std::vector<std::uint64_t> loads = ref.link_loads(net);
    std::uint64_t total = 0;
    for (std::size_t l = 0; l < net.num_links(); ++l) {
      EXPECT_EQ(net.link_load(l), loads[l]);
      total += loads[l];
    }
    EXPECT_EQ(net.total_link_load(), total);
    EXPECT_EQ(rt.node_transit_loads(), ref.transit);
  }
}

}  // namespace
}  // namespace dq::graph
