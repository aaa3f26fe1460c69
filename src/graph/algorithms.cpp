#include "graph/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.hpp"

namespace cloudqc {

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  CLOUDQC_CHECK(src >= 0 && src < g.num_nodes());
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<NodeId> q;
  dist[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const auto& e : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(e.to)] < 0) {
        dist[static_cast<std::size_t>(e.to)] =
            dist[static_cast<std::size_t>(u)] + 1;
        q.push(e.to);
      }
    }
  }
  return dist;
}

std::vector<NodeId> bfs_order(const Graph& g, NodeId src) {
  CLOUDQC_CHECK(src >= 0 && src < g.num_nodes());
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<NodeId> order;
  std::queue<NodeId> q;
  seen[static_cast<std::size_t>(src)] = 1;
  q.push(src);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    order.push_back(u);
    for (const auto& e : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(e.to)]) {
        seen[static_cast<std::size_t>(e.to)] = 1;
        q.push(e.to);
      }
    }
  }
  return order;
}

std::vector<double> dijkstra(const Graph& g, NodeId src) {
  CLOUDQC_CHECK(src >= 0 && src < g.num_nodes());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(g.num_nodes()), kInf);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : g.neighbors(u)) {
      CLOUDQC_DCHECK(e.weight >= 0.0);
      const double nd = d + e.weight;
      if (nd < dist[static_cast<std::size_t>(e.to)]) {
        dist[static_cast<std::size_t>(e.to)] = nd;
        pq.push({nd, e.to});
      }
    }
  }
  return dist;
}

HopDistanceMatrix::HopDistanceMatrix(const Graph& g)
    : n_(static_cast<std::size_t>(g.num_nodes())) {
  dist_.resize(n_ * n_);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto row = bfs_distances(g, u);
    std::copy(row.begin(), row.end(),
              dist_.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(u) * n_));
  }
}

std::vector<int> connected_components(const Graph& g) {
  std::vector<int> label(static_cast<std::size_t>(g.num_nodes()), -1);
  int next = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (label[static_cast<std::size_t>(s)] >= 0) continue;
    const int id = next++;
    std::queue<NodeId> q;
    label[static_cast<std::size_t>(s)] = id;
    q.push(s);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (const auto& e : g.neighbors(u)) {
        if (label[static_cast<std::size_t>(e.to)] < 0) {
          label[static_cast<std::size_t>(e.to)] = id;
          q.push(e.to);
        }
      }
    }
  }
  return label;
}

namespace {

/// Eccentricity-minimising node of g's largest component (the first one
/// in id order among equals, so disconnected graphs still yield an
/// anchor), ties going to the highest deg[u], then the lowest id. deg[u]
/// is u's weighted degree summed in the order the induced subgraph of
/// graph_center_of lists u's neighbours.
NodeId center_by(const WeightedCsr& g, const std::vector<double>& deg) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  // Components in id order, so labels match connected_components.
  std::vector<int> comp(n, -1);
  std::vector<int> comp_size;
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    const int id = static_cast<int>(comp_size.size());
    queue.assign(1, s);
    comp[static_cast<std::size_t>(s)] = id;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
        int& c = comp[static_cast<std::size_t>(g.to(i))];
        if (c < 0) {
          c = id;
          queue.push_back(g.to(i));
        }
      }
    }
    comp_size.push_back(static_cast<int>(queue.size()));
  }
  const int big = static_cast<int>(
      std::max_element(comp_size.begin(), comp_size.end()) -
      comp_size.begin());

  // One BFS per node of the largest component, over one queue and one
  // distance buffer. A BFS stops as soon as it reaches a distance beyond
  // the best eccentricity so far, since that node can no longer win; only
  // the nodes it reached are reset.
  std::vector<int> dist(n, -1);
  NodeId best = kInvalidNode;
  int best_ecc = std::numeric_limits<int>::max();
  double best_deg = -1.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (comp[static_cast<std::size_t>(u)] != big) continue;
    queue.assign(1, u);
    dist[static_cast<std::size_t>(u)] = 0;
    int ecc = 0;
    for (std::size_t head = 0; head < queue.size() && ecc <= best_ecc;
         ++head) {
      const NodeId x = queue[head];
      const int dx = dist[static_cast<std::size_t>(x)] + 1;
      for (std::size_t i = g.begin(x); i < g.end(x); ++i) {
        int& d = dist[static_cast<std::size_t>(g.to(i))];
        if (d < 0) {
          d = dx;
          ecc = dx;
          queue.push_back(g.to(i));
        }
      }
    }
    for (const NodeId v : queue) dist[static_cast<std::size_t>(v)] = -1;
    const double d = deg[static_cast<std::size_t>(u)];
    if (ecc < best_ecc || (ecc == best_ecc && d > best_deg)) {
      best_ecc = ecc;
      best_deg = d;
      best = u;
    }
  }
  CLOUDQC_CHECK(best != kInvalidNode);
  return best;
}

}  // namespace

NodeId graph_center(const Graph& g) { return graph_center(WeightedCsr(g)); }

NodeId graph_center(const WeightedCsr& g) {
  if (g.num_nodes() == 0) return kInvalidNode;
  // Weighted degrees summed in the order induced_subgraph(g, all ids)
  // lists each node's neighbours: lower ids ascending, then the node's own
  // list from itself upwards. Another summation order can round
  // fractional weights differently and flip a tie.
  std::vector<double> deg(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
      const NodeId v = g.to(i);
      if (v < u) continue;
      deg[static_cast<std::size_t>(u)] +=
          v == u ? 2.0 * g.weight(i) : g.weight(i);
      if (v != u) deg[static_cast<std::size_t>(v)] += g.weight(i);
    }
  }
  return center_by(g, deg);
}

NodeId graph_center_of(const Graph& g, const std::vector<NodeId>& subset) {
  if (subset.empty()) return kInvalidNode;
  if (subset.size() == 1) return subset.front();
  // The induced subgraph as a CSR, fed the edge stream induced_subgraph
  // feeds Graph::add_edge, so degrees sum in the same order.
  std::vector<NodeId> to_new(static_cast<std::size_t>(g.num_nodes()),
                             kInvalidNode);
  std::vector<double> weights(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const NodeId u = subset[i];
    CLOUDQC_CHECK(u >= 0 && u < g.num_nodes());
    CLOUDQC_CHECK_MSG(to_new[static_cast<std::size_t>(u)] == kInvalidNode,
                      "duplicate node in subset");
    to_new[static_cast<std::size_t>(u)] = static_cast<NodeId>(i);
    weights[i] = g.node_weight(u);
  }
  std::vector<Graph::FlatEdge> edges;
  for (const NodeId u : subset) {
    for (const Edge& e : g.neighbors(u)) {
      const NodeId nv = to_new[static_cast<std::size_t>(e.to)];
      if (nv != kInvalidNode && e.to >= u) {
        edges.push_back({to_new[static_cast<std::size_t>(u)], nv, e.weight});
      }
    }
  }
  const WeightedCsr sub(std::move(weights), edges);
  std::vector<double> deg(subset.size());
  for (NodeId u = 0; u < sub.num_nodes(); ++u) {
    deg[static_cast<std::size_t>(u)] = sub.weighted_degree(u);
  }
  return subset[static_cast<std::size_t>(center_by(sub, deg))];
}

Graph induced_subgraph(const Graph& g, const std::vector<NodeId>& subset,
                       std::vector<NodeId>* out_map) {
  std::vector<NodeId> to_new(static_cast<std::size_t>(g.num_nodes()),
                             kInvalidNode);
  Graph sub(static_cast<NodeId>(subset.size()));
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const NodeId u = subset[i];
    CLOUDQC_CHECK(u >= 0 && u < g.num_nodes());
    CLOUDQC_CHECK_MSG(to_new[static_cast<std::size_t>(u)] == kInvalidNode,
                      "duplicate node in subset");
    to_new[static_cast<std::size_t>(u)] = static_cast<NodeId>(i);
    sub.set_node_weight(static_cast<NodeId>(i), g.node_weight(u));
  }
  for (const NodeId u : subset) {
    for (const auto& e : g.neighbors(u)) {
      const NodeId nu = to_new[static_cast<std::size_t>(u)];
      const NodeId nv = to_new[static_cast<std::size_t>(e.to)];
      if (nv == kInvalidNode) continue;
      if (e.to > u || (e.to == u)) {  // each undirected edge once
        sub.add_edge(nu, nv, e.weight);
      }
    }
  }
  if (out_map != nullptr) *out_map = subset;
  return sub;
}

}  // namespace cloudqc
