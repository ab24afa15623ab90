#include "graph/routing.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dq::graph {

namespace {
constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();
}

RoutingTable::RoutingTable(const Graph& g, const HopLoad& on_hop)
    : n_(g.num_nodes()) {
  if (n_ == 0) throw std::invalid_argument("RoutingTable: empty graph");
  dist_.assign(n_ * n_, kUnreachable);
  next_.assign(n_ * n_, 0);
  transit_.assign(n_, 0);

  // Adjacency as CSR rows sorted once by neighbor id, so the first
  // qualifying neighbor in a row is the lowest-id one.
  std::vector<std::size_t> row(n_ + 1, 0);
  for (NodeId u = 0; u < n_; ++u) row[u + 1] = row[u] + g.degree(u);
  std::vector<NodeId> adj(row[n_]);
  for (NodeId u = 0; u < n_; ++u) {
    const auto nb = g.neighbors(u);
    std::copy(nb.begin(), nb.end(), adj.begin() + row[u]);
    std::sort(adj.begin() + row[u], adj.begin() + row[u + 1]);
  }

  std::vector<NodeId> order(n_);   // BFS order from the destination
  std::vector<NodeId> toward(n_);  // each node's next hop toward it
  std::vector<std::uint64_t> subtree(n_);
  for (NodeId t = 0; t < n_; ++t) {
    // Hop distances are symmetric, so the BFS from t fills row t.
    std::uint32_t* d = dist_.data() + index(t, 0);
    d[t] = 0;
    order[0] = t;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const NodeId u = order[head];
      for (std::size_t e = row[u]; e < row[u + 1]; ++e) {
        const NodeId v = adj[e];
        if (d[v] != kUnreachable) continue;
        d[v] = d[u] + 1;
        order[tail++] = v;
      }
    }
    if (tail != n_)
      throw std::invalid_argument("RoutingTable: graph is disconnected");

    // The next hop toward t is the lowest-id neighbor one hop closer.
    next_[index(t, t)] = t;
    for (std::size_t i = 1; i < n_; ++i) {
      const NodeId u = order[i];
      std::size_t e = row[u];
      while (d[adj[e]] + 1 != d[u]) ++e;
      toward[u] = adj[e];
      next_[index(u, t)] = adj[e];
    }

    // Leaves-first fold over t's in-tree: in decreasing-distance order
    // every node comes after all the nodes whose next hop it is, so its
    // subtree size is complete — the number of sources routed through
    // its hop toward t, itself included.
    std::fill(subtree.begin(), subtree.end(), 1);
    for (std::size_t i = n_ - 1; i > 0; --i) {
      const NodeId u = order[i];
      transit_[u] += subtree[u] - 1;
      if (on_hop) on_hop(u, toward[u], subtree[u]);
      subtree[toward[u]] += subtree[u];
    }
  }
}

std::optional<NodeId> RoutingTable::next_hop(NodeId from, NodeId to) const {
  if (from >= n_ || to >= n_)
    throw std::out_of_range("RoutingTable::next_hop");
  if (from == to) return std::nullopt;
  return next_[index(from, to)];
}

std::vector<NodeId> RoutingTable::path(NodeId from, NodeId to) const {
  if (from >= n_ || to >= n_) throw std::out_of_range("RoutingTable::path");
  std::vector<NodeId> p = {from};
  NodeId cur = from;
  while (cur != to) {
    cur = next_[index(cur, to)];
    p.push_back(cur);
  }
  return p;
}

double RoutingTable::path_coverage(const std::vector<NodeId>& hosts,
                                   const std::vector<char>& via) const {
  if (via.size() != n_)
    throw std::invalid_argument("RoutingTable::path_coverage: via size");
  for (NodeId h : hosts)
    if (h >= n_)
      throw std::out_of_range("RoutingTable::path_coverage: host id");
  std::uint64_t covered = 0, total = 0;
  for (NodeId src : hosts)
    for (NodeId dst : hosts) {
      if (src == dst) continue;
      ++total;
      NodeId cur = src;
      while (cur != dst) {
        const NodeId nxt = next_[index(cur, dst)];
        if (nxt != dst && via[nxt]) {
          ++covered;
          break;
        }
        cur = nxt;
      }
    }
  return total == 0 ? 0.0
                    : static_cast<double>(covered) / static_cast<double>(total);
}

}  // namespace dq::graph
