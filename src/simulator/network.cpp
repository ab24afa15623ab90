#include "simulator/network.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace dq::sim {

namespace {

/// All-pairs table within budget? 8 bytes per ordered pair (uint32
/// distance + uint32 next hop in graph::RoutingTable).
bool routing_table_fits(std::size_t n, const NetworkOptions& options) {
  return n == 0 || n <= options.routing_table_bytes / (n * 8);
}

}  // namespace

Network::Network(graph::Graph g, double backbone_fraction,
                 double edge_fraction, NetworkOptions options)
    : graph_(std::move(g)),
      options_(options),
      roles_(graph::assign_roles(graph_, backbone_fraction, edge_fraction)) {
  build_routing();
}

Network::Network(graph::Graph g, graph::RoleAssignment roles,
                 NetworkOptions options)
    : graph_(std::move(g)),
      options_(options),
      roles_(std::move(roles)) {
  if (roles_.role.size() != graph_.num_nodes())
    throw std::invalid_argument("Network: role assignment size mismatch");
  build_routing();
}

Network::Network(graph::SubnetTopology topo, NetworkOptions options)
    : graph_(std::move(topo.graph)),
      options_(options) {
  // Gateways are the edge routers; everything else is a host. The
  // backbone role is attached to the gateways' interconnect links via
  // link_touches_role on kEdgeRouter, so no separate backbone nodes.
  roles_.role.assign(graph_.num_nodes(), graph::NodeRole::kHost);
  for (NodeId gw : topo.gateways) {
    roles_.role[gw] = graph::NodeRole::kEdgeRouter;
    roles_.edge.push_back(gw);
  }
  for (NodeId v = 0; v < graph_.num_nodes(); ++v)
    if (roles_.role[v] == graph::NodeRole::kHost) roles_.hosts.push_back(v);

  subnet_of_ = std::move(topo.subnet_of);
  subnet_members_ = std::move(topo.members);
  build_routing();
}

const graph::RoutingTable& Network::routing() const {
  if (routing_ == nullptr)
    throw std::logic_error(
        "Network::routing: all-pairs table not built (network exceeds "
        "NetworkOptions::routing_table_bytes; tree routing is in use — "
        "check has_routing_table())");
  return *routing_;
}

void Network::build_routing() {
  const std::size_t n = graph_.num_nodes();
  links_.clear();
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b : graph_.neighbors(a))
      if (a < b) links_.push_back({a, b});

  // CSR adjacency with link indices, both directions, rows sorted by
  // neighbor id so adj_link can binary-search.
  adj_offset_.assign(n + 1, 0);
  for (const graph::LinkKey& l : links_) {
    ++adj_offset_[l.a + 1];
    ++adj_offset_[l.b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) adj_offset_[v + 1] += adj_offset_[v];
  adj_.resize(links_.size() * 2);
  {
    std::vector<std::size_t> cursor(adj_offset_.begin(),
                                    adj_offset_.end() - 1);
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const graph::LinkKey& l = links_[i];
      adj_[cursor[l.a]++] = {l.b, static_cast<std::uint32_t>(i)};
      adj_[cursor[l.b]++] = {l.a, static_cast<std::uint32_t>(i)};
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    std::sort(adj_.begin() + adj_offset_[v], adj_.begin() + adj_offset_[v + 1],
              [](const AdjEntry& x, const AdjEntry& y) {
                return x.neighbor < y.neighbor;
              });

  link_loads_.assign(links_.size(), 0);
  if (routing_table_fits(n, options_)) {
    // The table's fold hands over every routed hop with the number of
    // ordered pairs taking it; the CSR rows map the hop to its link.
    routing_ = std::make_unique<graph::RoutingTable>(
        graph_, [this](NodeId from, NodeId next, std::uint64_t pairs) {
          link_loads_[adj_link(from, next)] += pairs;
        });
  } else {
    build_tree_routing();
  }

  std::uint64_t total = 0;
  for (std::uint64_t load : link_loads_) total += load;
  total_link_load_ = total;
  mean_link_load_ =
      links_.empty() ? 0.0
                     : static_cast<double>(total) /
                           static_cast<double>(links_.size());

  // Dense next-link table: for every (at, dest) pair, the link crossed
  // on the first hop. One array read replaces the per-hop hash probe
  // the forwarding loop used to pay. Needs the all-pairs table.
  hop_link_.clear();
  if (routing_ != nullptr && n >= 2 &&
      n <= options_.dense_hop_table_bytes / (n * sizeof(std::uint32_t))) {
    hop_link_.resize(n * n);
    std::vector<std::uint32_t> link_of(n, 0);
    for (NodeId from = 0; from < n; ++from) {
      for (std::size_t e = adj_offset_[from]; e < adj_offset_[from + 1]; ++e)
        link_of[adj_[e].neighbor] = adj_[e].link;
      std::uint32_t* row = hop_link_.data() + static_cast<std::size_t>(from) * n;
      for (NodeId to = 0; to < n; ++to)
        if (to != from) row[to] = link_of[routing_->next_hop_raw(from, to)];
    }
  }
}

void Network::build_tree_routing() {
  const std::size_t n = graph_.num_nodes();
  if (n == 0) return;

  // Root at the highest-degree node (ties → lowest id) so the tree's
  // trunk coincides with the hub the role assignment makes backbone.
  NodeId root = 0;
  std::size_t best_degree = adj_offset_[1] - adj_offset_[0];
  for (NodeId v = 1; v < n; ++v) {
    const std::size_t d = adj_offset_[v + 1] - adj_offset_[v];
    if (d > best_degree) {
      best_degree = d;
      root = v;
    }
  }
  tree_root_ = root;

  // BFS over the CSR rows (already sorted by neighbor id, so the tree
  // is deterministic for a given graph).
  tree_parent_.assign(n, root);
  tree_parent_link_.assign(n, 0);
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<std::uint8_t> visited(n, 0);
  visited[root] = 1;
  order.push_back(root);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (std::size_t e = adj_offset_[v]; e < adj_offset_[v + 1]; ++e) {
      const AdjEntry& a = adj_[e];
      if (visited[a.neighbor]) continue;
      visited[a.neighbor] = 1;
      tree_parent_[a.neighbor] = v;
      tree_parent_link_[a.neighbor] = a.link;
      order.push_back(a.neighbor);
    }
  }
  if (order.size() != n)
    throw std::invalid_argument("Network: graph must be connected");

  // Subtree sizes by folding the BFS order backwards.
  std::vector<std::uint32_t> subtree(n, 1);
  for (std::size_t i = n; i-- > 1;) {
    const NodeId v = order[i];
    subtree[tree_parent_[v]] += subtree[v];
  }

  // Children CSR, per-parent in ascending child id (so the tour-entry
  // times assigned below increase along each row — the invariant
  // tree_hop's binary search relies on).
  tree_child_offset_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v)
    if (v != root) ++tree_child_offset_[tree_parent_[v] + 1];
  for (std::size_t v = 0; v < n; ++v)
    tree_child_offset_[v + 1] += tree_child_offset_[v];
  tree_children_.resize(n - 1);
  {
    std::vector<std::size_t> cursor(tree_child_offset_.begin(),
                                    tree_child_offset_.end() - 1);
    for (NodeId v = 0; v < n; ++v)
      if (v != root) tree_children_[cursor[tree_parent_[v]]++] = v;
  }

  // Euler-tour entry times without recursion: each node hands out
  // consecutive blocks of its interval to its children in CSR order.
  tree_tin_.assign(n, 0);
  tree_tout_.assign(n, 0);
  tree_tout_[root] = subtree[root];
  for (const NodeId v : order) {
    std::uint32_t cursor = tree_tin_[v] + 1;
    for (std::size_t c = tree_child_offset_[v]; c < tree_child_offset_[v + 1];
         ++c) {
      const NodeId child = tree_children_[c];
      tree_tin_[child] = cursor;
      cursor += subtree[child];
      tree_tout_[child] = cursor;
    }
  }

  // Tree link loads: a tree edge to a subtree of s nodes carries every
  // ordered pair crossing it, 2·s·(N−s); non-tree links carry nothing.
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const std::uint64_t s = subtree[v];
    link_loads_[tree_parent_link_[v]] =
        2 * s * (static_cast<std::uint64_t>(n) - s);
  }
}

std::size_t Network::link_index(NodeId a, NodeId b) const {
  if (a >= graph_.num_nodes() || b >= graph_.num_nodes() || a == b)
    throw std::invalid_argument("Network::link_index: no such link");
  const std::size_t lo = adj_offset_[a];
  const std::size_t hi = adj_offset_[a + 1];
  const auto it = std::lower_bound(
      adj_.begin() + lo, adj_.begin() + hi, b,
      [](const AdjEntry& e, NodeId key) { return e.neighbor < key; });
  if (it == adj_.begin() + hi || it->neighbor != b)
    throw std::invalid_argument("Network::link_index: no such link");
  return it->link;
}

std::optional<std::size_t> Network::subnet_of(NodeId n) const {
  if (subnet_of_.empty()) return std::nullopt;
  return subnet_of_.at(n);
}

const std::vector<NodeId>& Network::subnet_members(std::size_t subnet) const {
  return subnet_members_.at(subnet);
}

bool Network::link_touches_role(std::size_t index,
                                graph::NodeRole role) const {
  const graph::LinkKey& l = links_.at(index);
  return roles_.role.at(l.a) == role || roles_.role.at(l.b) == role;
}

bool Network::link_is_backbone(std::size_t index) const {
  if (link_touches_role(index, graph::NodeRole::kBackboneRouter))
    return true;
  if (!has_subnets()) return false;
  const graph::LinkKey& l = links_.at(index);
  return roles_.role.at(l.a) == graph::NodeRole::kEdgeRouter &&
         roles_.role.at(l.b) == graph::NodeRole::kEdgeRouter;
}

}  // namespace dq::sim
