#include "simulator/network.hpp"

#include <gtest/gtest.h>

namespace dq::sim {
namespace {

TEST(Network, WrapsGraphWithRoles) {
  Rng rng(1);
  const Network net(graph::make_barabasi_albert(100, 2, rng));
  EXPECT_EQ(net.num_nodes(), 100u);
  EXPECT_EQ(net.roles().backbone.size(), 5u);
  EXPECT_EQ(net.roles().edge.size(), 10u);
  EXPECT_FALSE(net.has_subnets());
}

TEST(Network, LinkIndexRoundTrip) {
  const Network net(graph::make_star(5), 0.2, 0.0);
  EXPECT_EQ(net.num_links(), 4u);
  for (std::size_t l = 0; l < net.num_links(); ++l) {
    const graph::LinkKey key = net.link(l);
    EXPECT_EQ(net.link_index(key.a, key.b), l);
    EXPECT_EQ(net.link_index(key.b, key.a), l);
  }
  EXPECT_THROW(net.link_index(1, 2), std::invalid_argument);
}

TEST(Network, LinkLoadsAndMean) {
  const Network net(graph::make_star(4), 0.25, 0.0);
  // Ordered pairs: leaf<->leaf paths (3*2 = 6) cross two hub links each;
  // hub<->leaf (6 ordered) cross one. Each hub-leaf link carries:
  // 2 (to/from hub) + 2*2 (as transit for the other two leaves, both
  // directions) = 6.
  for (std::size_t l = 0; l < net.num_links(); ++l)
    EXPECT_EQ(net.link_load(l), 6u);
  EXPECT_EQ(net.total_link_load(), 18u);
  EXPECT_DOUBLE_EQ(net.mean_link_load(), 6.0);
}

TEST(Network, SubnetTopologyRoles) {
  Rng rng(2);
  const Network net(graph::make_subnet_topology(3, 4, rng));
  EXPECT_TRUE(net.has_subnets());
  EXPECT_EQ(net.num_subnets(), 3u);
  EXPECT_EQ(net.roles().edge.size(), 3u);
  EXPECT_EQ(net.roles().backbone.size(), 0u);
  EXPECT_EQ(net.roles().hosts.size(), 12u);
  for (graph::NodeId gw : net.roles().edge)
    EXPECT_EQ(net.roles().role[gw], graph::NodeRole::kEdgeRouter);
}

TEST(Network, SubnetMembership) {
  Rng rng(3);
  const Network net(graph::make_subnet_topology(2, 3, rng));
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    const auto subnet = net.subnet_of(v);
    ASSERT_TRUE(subnet.has_value());
    const auto& members = net.subnet_members(*subnet);
    EXPECT_NE(std::find(members.begin(), members.end(), v), members.end());
  }
}

TEST(Network, BackboneLinksOnSubnetTopologyAreGatewayInterconnect) {
  Rng rng(4);
  const Network net(graph::make_subnet_topology(3, 4, rng));
  std::size_t backbone_links = 0;
  for (std::size_t l = 0; l < net.num_links(); ++l) {
    if (net.link_is_backbone(l)) {
      ++backbone_links;
      const graph::LinkKey key = net.link(l);
      EXPECT_EQ(net.roles().role[key.a], graph::NodeRole::kEdgeRouter);
      EXPECT_EQ(net.roles().role[key.b], graph::NodeRole::kEdgeRouter);
    }
  }
  EXPECT_GE(backbone_links, 2u);  // 3 gateways interconnected
}

TEST(Network, EdgeLinksTouchEdgeRouters) {
  Rng rng(5);
  const Network net(graph::make_barabasi_albert(100, 2, rng));
  for (std::size_t l = 0; l < net.num_links(); ++l) {
    if (net.link_is_edge(l)) {
      const graph::LinkKey key = net.link(l);
      EXPECT_TRUE(
          net.roles().role[key.a] == graph::NodeRole::kEdgeRouter ||
          net.roles().role[key.b] == graph::NodeRole::kEdgeRouter);
    }
  }
}

TEST(Network, SubnetlessHasNoSubnetInfo) {
  const Network net(graph::make_star(4), 0.25, 0.0);
  EXPECT_FALSE(net.subnet_of(1).has_value());
  EXPECT_EQ(net.num_subnets(), 0u);
}

TEST(Network, BorrowedSubnetViewsMatchAccessors) {
  Rng rng(6);
  const Network net(graph::make_subnet_topology(3, 4, rng));
  ASSERT_EQ(net.subnet_ids().size(), net.num_nodes());
  ASSERT_EQ(net.subnet_lists().size(), net.num_subnets());
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v)
    EXPECT_EQ(net.subnet_ids()[v], *net.subnet_of(v));
  for (std::size_t s = 0; s < net.num_subnets(); ++s)
    EXPECT_EQ(net.subnet_lists()[s], net.subnet_members(s));
}

// Satellite: adj_link used to read adj_[lo] unconditionally after its
// binary search — an OOB read in a noexcept function whenever the
// routing table named a non-adjacent next hop. The public path to the
// lookup is hop_toward with the dense table disabled; sweeping every
// (at, dest) pair drives the search into every row boundary (first,
// last, and only neighbors of each row) and must reproduce the dense
// table's answers exactly.
TEST(Network, HopTowardFallbackMatchesDenseTableOnEveryPair) {
  Rng rng(7);
  graph::Graph g = graph::make_barabasi_albert(60, 2, rng);
  NetworkOptions no_dense;
  no_dense.dense_hop_table_bytes = 0;
  const Network fallback(g, 0.05, 0.10, no_dense);
  const Network dense(std::move(g), 0.05, 0.10);
  ASSERT_TRUE(fallback.has_routing_table());
  for (graph::NodeId a = 0; a < fallback.num_nodes(); ++a)
    for (graph::NodeId b = 0; b < fallback.num_nodes(); ++b) {
      if (a == b) continue;
      const Network::HopStep fb = fallback.hop_toward(a, b);
      const Network::HopStep dn = dense.hop_toward(a, b);
      ASSERT_EQ(fb.next, dn.next) << a << "->" << b;
      ASSERT_EQ(fb.link, dn.link) << a << "->" << b;
    }
}

TEST(Network, TreeBackendSkipsAllPairsTable) {
  Rng rng(8);
  NetworkOptions opts;
  opts.routing_table_bytes = 0;  // force tree routing on a small graph
  const Network net(graph::make_barabasi_albert(80, 2, rng), 0.05, 0.10,
                    opts);
  EXPECT_FALSE(net.has_routing_table());
  EXPECT_THROW(net.routing(), std::logic_error);
  EXPECT_GT(net.total_link_load(), 0u);
}

TEST(Network, TreeBackendRoutesEveryPairAlongRealLinks) {
  Rng rng(9);
  graph::Graph g = graph::make_barabasi_albert(80, 2, rng);
  NetworkOptions opts;
  opts.routing_table_bytes = 0;
  const Network net(g, 0.05, 0.10, opts);
  const std::size_t n = net.num_nodes();
  for (graph::NodeId a = 0; a < n; ++a)
    for (graph::NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      graph::NodeId at = a;
      std::size_t hops = 0;
      while (at != b) {
        const Network::HopStep hop = net.hop_toward(at, b);
        ASSERT_TRUE(g.has_edge(at, hop.next)) << at << "->" << hop.next;
        ASSERT_EQ(net.link_index(at, hop.next), hop.link);
        at = hop.next;
        // A tree path visits every node at most once.
        ASSERT_LT(++hops, n) << a << "->" << b << " did not terminate";
      }
    }
}

TEST(Network, TreeBackendIsExactOnAStar) {
  // On a tree (the star is one) the BFS tree IS the graph, so tree
  // routing must agree with the all-pairs table on every hop and on
  // every link load.
  NetworkOptions opts;
  opts.routing_table_bytes = 0;
  const Network tree(graph::make_star(30), 1.0 / 30.0, 0.0, opts);
  const Network table(graph::make_star(30), 1.0 / 30.0, 0.0);
  ASSERT_EQ(tree.num_links(), table.num_links());
  for (graph::NodeId a = 0; a < 30; ++a)
    for (graph::NodeId b = 0; b < 30; ++b) {
      if (a == b) continue;
      const Network::HopStep x = tree.hop_toward(a, b);
      const Network::HopStep y = table.hop_toward(a, b);
      EXPECT_EQ(x.next, y.next);
      EXPECT_EQ(x.link, y.link);
    }
  for (std::size_t l = 0; l < tree.num_links(); ++l)
    EXPECT_EQ(tree.link_load(l), table.link_load(l));
  EXPECT_EQ(tree.total_link_load(), table.total_link_load());
}

}  // namespace
}  // namespace dq::sim
