#include "community/louvain.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace cloudqc {
namespace {

/// Relabel arbitrary community ids to dense 0..k-1 (order of appearance).
int densify(std::vector<int>& community) {
  std::vector<int> remap(community.size(), -1);
  int next = 0;
  for (int& c : community) {
    CLOUDQC_CHECK(c >= 0 && static_cast<std::size_t>(c) < remap.size());
    if (remap[static_cast<std::size_t>(c)] < 0) {
      remap[static_cast<std::size_t>(c)] = next++;
    }
    c = remap[static_cast<std::size_t>(c)];
  }
  return next;
}

/// modularity() with each node's weighted degree supplied.
double modularity_with(const WeightedCsr& g, const std::vector<int>& community,
                       const std::vector<double>& degree) {
  CLOUDQC_CHECK(community.size() == static_cast<std::size_t>(g.num_nodes()));
  const double m = g.total_edge_weight();
  if (m == 0.0) return 0.0;
  int k = 0;
  for (int c : community) k = std::max(k, c + 1);
  std::vector<double> in(static_cast<std::size_t>(k), 0.0);
  std::vector<double> tot(static_cast<std::size_t>(k), 0.0);
  // Each undirected edge once (to >= u), in Graph::edges() order.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const int cu = community[static_cast<std::size_t>(u)];
    for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
      const NodeId v = g.to(i);
      if (v < u || community[static_cast<std::size_t>(v)] != cu) continue;
      in[static_cast<std::size_t>(cu)] +=
          (v == u) ? g.weight(i) : 2.0 * g.weight(i);
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    tot[static_cast<std::size_t>(community[static_cast<std::size_t>(u)])] +=
        degree[static_cast<std::size_t>(u)];
  }
  double q = 0.0;
  for (int c = 0; c < k; ++c) {
    const double tc = tot[static_cast<std::size_t>(c)];
    q += in[static_cast<std::size_t>(c)] / (2.0 * m) -
         (tc / (2.0 * m)) * (tc / (2.0 * m));
  }
  return q;
}

/// One Louvain level: local moving on `g`. Returns (community labels, gain).
std::pair<std::vector<int>, double> local_move(const WeightedCsr& g,
                                               Rng& rng) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const double two_m = 2.0 * g.total_edge_weight();
  std::vector<int> comm(n);
  std::iota(comm.begin(), comm.end(), 0);
  if (two_m == 0.0) return {comm, 0.0};

  // degree[u]: weighted degree, fixed for the level; tot[c]: sum of
  // weighted degrees in community c.
  std::vector<double> degree(n);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    degree[static_cast<std::size_t>(u)] = g.weighted_degree(u);
  }
  std::vector<double> tot = degree;

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  const double q_before = modularity_with(g, comm, degree);
  // Weight from the visited node to each neighboring community, as
  // (community, weight) in first-seen order, and slot[c] = index + 1 of
  // community c in it (0 = absent); one buffer for every visit.
  std::vector<std::pair<int, double>> neigh;
  std::vector<std::size_t> slot(n, 0);
  bool improved = true;
  int guard = 0;
  while (improved && guard++ < 100) {
    improved = false;
    for (const NodeId u : order) {
      const auto su = static_cast<std::size_t>(u);
      const int old_c = comm[su];
      const double ku = degree[su];

      for (const auto& entry : neigh) {
        slot[static_cast<std::size_t>(entry.first)] = 0;
      }
      neigh.clear();
      auto weight_to = [&](int c) -> double& {
        std::size_t& s = slot[static_cast<std::size_t>(c)];
        if (s == 0) {
          neigh.emplace_back(c, 0.0);
          s = neigh.size();
        }
        return neigh[s - 1].second;
      };
      weight_to(old_c);  // listed first
      for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
        if (g.to(i) == u) continue;
        weight_to(comm[static_cast<std::size_t>(g.to(i))]) += g.weight(i);
      }

      // Remove u from its community.
      tot[static_cast<std::size_t>(old_c)] -= ku;
      const double w_old = neigh.front().second;

      // ΔQ of joining community c: k_{u,c}/m − k_u·tot_c/(2m²)  (constant
      // terms cancel when comparing against staying put).
      int best_c = old_c;
      double best_delta =
          w_old / (two_m / 2.0) - ku * tot[static_cast<std::size_t>(old_c)] /
                                      (two_m * two_m / 2.0);
      for (const auto& [c, w] : neigh) {
        const double delta =
            w / (two_m / 2.0) -
            ku * tot[static_cast<std::size_t>(c)] / (two_m * two_m / 2.0);
        if (delta > best_delta + 1e-15) {
          best_delta = delta;
          best_c = c;
        }
      }

      tot[static_cast<std::size_t>(best_c)] += ku;
      if (best_c != old_c) {
        comm[su] = best_c;
        improved = true;
      }
    }
  }
  const double q_after = modularity_with(g, comm, degree);
  return {std::move(comm), q_after - q_before};
}

/// Aggregate: one node per community, edges summed (intra-community weight
/// becomes a self-loop), built straight into CSR from the edges in
/// Graph::edges() order.
WeightedCsr aggregate(const WeightedCsr& g, const std::vector<int>& comm,
                      int k) {
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    weight[static_cast<std::size_t>(comm[static_cast<std::size_t>(u)])] +=
        g.node_weight(u);
  }
  std::vector<Graph::FlatEdge> edges;
  edges.reserve(g.num_entries() / 2 + 1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto cu = static_cast<NodeId>(comm[static_cast<std::size_t>(u)]);
    for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
      if (g.to(i) < u) continue;
      edges.push_back(
          {cu, static_cast<NodeId>(comm[static_cast<std::size_t>(g.to(i))]),
           g.weight(i)});
    }
  }
  return WeightedCsr(std::move(weight), edges);
}

}  // namespace

double modularity(const Graph& g, const std::vector<int>& community) {
  return modularity(WeightedCsr(g), community);
}

double modularity(const WeightedCsr& g, const std::vector<int>& community) {
  std::vector<double> degree(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    degree[static_cast<std::size_t>(u)] = g.weighted_degree(u);
  }
  return modularity_with(g, community, degree);
}

CommunityResult detect_communities(const Graph& g, std::uint64_t seed) {
  return detect_communities(WeightedCsr(g), seed);
}

CommunityResult detect_communities(const WeightedCsr& g, std::uint64_t seed) {
  // Cap on aggregate/local-move rounds, and the smallest modularity gain
  // of a level's local moves that is worth another level.
  constexpr int kMaxLevels = 16;
  constexpr double kMinGain = 1e-7;

  CommunityResult out;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  out.community.resize(n);
  std::iota(out.community.begin(), out.community.end(), 0);
  if (n == 0) return out;

  Rng rng(seed);
  // Level 0 is the caller's graph, referenced rather than copied.
  WeightedCsr aggregated;
  const WeightedCsr* level_graph = &g;
  // node of original graph -> node of current level graph.
  std::vector<int> node_to_level(n);
  std::iota(node_to_level.begin(), node_to_level.end(), 0);

  for (int level = 0; level < kMaxLevels; ++level) {
    auto [comm, gain] = local_move(*level_graph, rng);
    const int k = densify(comm);
    // Project to original nodes.
    for (std::size_t u = 0; u < n; ++u) {
      node_to_level[u] = comm[static_cast<std::size_t>(node_to_level[u])];
    }
    const bool shrunk = k < level_graph->num_nodes();
    if (!shrunk || gain < kMinGain) break;
    aggregated = aggregate(*level_graph, comm, k);
    level_graph = &aggregated;
  }

  out.community = node_to_level;
  out.num_communities = densify(out.community);
  out.modularity = modularity(g, out.community);
  return out;
}

std::vector<std::vector<NodeId>> community_members(
    const CommunityResult& result) {
  std::vector<std::vector<NodeId>> members(
      static_cast<std::size_t>(result.num_communities));
  for (std::size_t u = 0; u < result.community.size(); ++u) {
    members[static_cast<std::size_t>(result.community[u])].push_back(
        static_cast<NodeId>(u));
  }
  return members;
}

}  // namespace cloudqc
