#include <algorithm>
#include <numeric>
#include <queue>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"

namespace cloudqc {
namespace {

/// One coarsening step of the multilevel hierarchy.
struct CoarseLevel {
  /// Node of the next finer level -> node of `graph`.
  std::vector<NodeId> to_coarse;
  WeightedCsr graph;
};

/// Heavy-edge matching: visit nodes in random order; match each unmatched
/// node with its unmatched neighbor of maximum edge weight. Returns
/// fine->coarse map and the number of coarse nodes.
std::pair<std::vector<NodeId>, NodeId> heavy_edge_matching(
    const WeightedCsr& g, Rng& rng) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<NodeId> match(n, kInvalidNode);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  for (const NodeId u : order) {
    if (match[static_cast<std::size_t>(u)] != kInvalidNode) continue;
    NodeId best = kInvalidNode;
    double best_w = -1.0;
    for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
      const NodeId v = g.to(i);
      if (v == u) continue;
      if (match[static_cast<std::size_t>(v)] != kInvalidNode) continue;
      if (g.weight(i) > best_w) {
        best_w = g.weight(i);
        best = v;
      }
    }
    if (best == kInvalidNode) {
      match[static_cast<std::size_t>(u)] = u;  // stays alone
    } else {
      match[static_cast<std::size_t>(u)] = best;
      match[static_cast<std::size_t>(best)] = u;
    }
  }

  std::vector<NodeId> to_coarse(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (to_coarse[static_cast<std::size_t>(u)] != kInvalidNode) continue;
    const NodeId m = match[static_cast<std::size_t>(u)];
    to_coarse[static_cast<std::size_t>(u)] = next;
    if (m != u) to_coarse[static_cast<std::size_t>(m)] = next;
    ++next;
  }
  return {std::move(to_coarse), next};
}

/// Contract `g` along the fine->coarse map, straight into CSR: the coarse
/// pairs stream in Graph::edges() order, so every coarse neighbour list
/// comes out as Graph::add_edge would have built it.
WeightedCsr contract(const WeightedCsr& g, const std::vector<NodeId>& to_coarse,
                     NodeId coarse_n) {
  // Summed on top of 1.0, then less 1.0: the rounding the golden outputs
  // were recorded with, which fractional node weights can observe.
  std::vector<double> weight(static_cast<std::size_t>(coarse_n), 1.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    weight[static_cast<std::size_t>(to_coarse[static_cast<std::size_t>(u)])] +=
        g.node_weight(u);
  }
  for (double& w : weight) w -= 1.0;
  std::vector<Graph::FlatEdge> edges;
  edges.reserve(g.num_entries() / 2 + 1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId cu = to_coarse[static_cast<std::size_t>(u)];
    for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
      if (g.to(i) < u) continue;
      const NodeId cv = to_coarse[static_cast<std::size_t>(g.to(i))];
      if (cu != cv) edges.push_back({cu, cv, g.weight(i)});
    }
  }
  return WeightedCsr(std::move(weight), edges);
}

/// Greedy region growing: grow k regions from random seeds, always expanding
/// the lightest region across its heaviest frontier edge. Unreached nodes
/// (disconnected graphs) are swept into the lightest parts at the end.
/// `frontier` holds k vectors reused across restarts; they are cleared here.
std::vector<int> grow_initial_partition(
    const WeightedCsr& g, int k, Rng& rng, const std::vector<double>& target,
    std::vector<std::vector<NodeId>>& frontier) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<int> part(n, -1);
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Seeds: first k nodes of the shuffled order.
  for (auto& fr : frontier) fr.clear();
  int seeded = 0;
  for (const NodeId u : order) {
    if (seeded == k) break;
    part[static_cast<std::size_t>(u)] = seeded;
    weight[static_cast<std::size_t>(seeded)] += g.node_weight(u);
    frontier[static_cast<std::size_t>(seeded)].push_back(u);
    ++seeded;
  }

  // Round-robin by lightest region.
  bool progress = true;
  while (progress) {
    progress = false;
    // Pick the region with the lowest weight/target ratio that still has a
    // frontier.
    int best_r = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < k; ++r) {
      if (frontier[static_cast<std::size_t>(r)].empty()) continue;
      const double ratio =
          weight[static_cast<std::size_t>(r)] / target[static_cast<std::size_t>(r)];
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_r = r;
      }
    }
    if (best_r < 0) break;
    auto& fr = frontier[static_cast<std::size_t>(best_r)];
    // Expand across the heaviest edge out of this region's frontier.
    NodeId pick = kInvalidNode;
    double pick_w = -1.0;
    for (std::size_t i = 0; i < fr.size(); ++i) {
      bool live = false;
      for (std::size_t j = g.begin(fr[i]); j < g.end(fr[i]); ++j) {
        if (part[static_cast<std::size_t>(g.to(j))] == -1) {
          live = true;
          if (g.weight(j) > pick_w) {
            pick_w = g.weight(j);
            pick = g.to(j);
          }
        }
      }
      if (!live) {
        // Exhausted frontier node; drop it.
        std::swap(fr[i], fr.back());
        fr.pop_back();
        --i;
      }
    }
    if (pick == kInvalidNode) {
      fr.clear();
      progress = true;  // other regions may still expand
      continue;
    }
    part[static_cast<std::size_t>(pick)] = best_r;
    weight[static_cast<std::size_t>(best_r)] += g.node_weight(pick);
    fr.push_back(pick);
    progress = true;
  }

  // Disconnected leftovers: assign to the lightest part.
  for (const NodeId u : order) {
    if (part[static_cast<std::size_t>(u)] != -1) continue;
    const int r = static_cast<int>(
        std::min_element(weight.begin(), weight.end()) - weight.begin());
    part[static_cast<std::size_t>(u)] = r;
    weight[static_cast<std::size_t>(r)] += g.node_weight(u);
  }
  return part;
}

/// Project a coarse partition back to the finer level.
std::vector<int> project(const std::vector<int>& coarse_part,
                         const std::vector<NodeId>& to_coarse) {
  std::vector<int> fine(to_coarse.size());
  for (std::size_t u = 0; u < to_coarse.size(); ++u) {
    fine[u] = coarse_part[static_cast<std::size_t>(to_coarse[u])];
  }
  return fine;
}

}  // namespace

double edge_cut(const Graph& g, const std::vector<int>& part) {
  return edge_cut(WeightedCsr(g), part);
}

double edge_cut(const WeightedCsr& g, const std::vector<int>& part) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(g.num_nodes()));
  double cut = 0.0;
  // Each undirected edge once (to >= u), in Graph::edges() order.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const int pu = part[static_cast<std::size_t>(u)];
    for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
      const NodeId v = g.to(i);
      if (v >= u && part[static_cast<std::size_t>(v)] != pu) cut += g.weight(i);
    }
  }
  return cut;
}

std::vector<double> part_weights(const Graph& g, const std::vector<int>& part,
                                 int min_parts) {
  return part_weights(WeightedCsr(g), part, min_parts);
}

std::vector<double> part_weights(const WeightedCsr& g,
                                 const std::vector<int>& part, int min_parts) {
  int k = min_parts;
  for (int p : part) k = std::max(k, p + 1);
  std::vector<double> w(static_cast<std::size_t>(k), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    w[static_cast<std::size_t>(part[static_cast<std::size_t>(u)])] +=
        g.node_weight(u);
  }
  return w;
}

PartitionResult partition_graph(const Graph& g, const PartitionOptions& opt) {
  return partition_graph(WeightedCsr(g), opt);
}

PartitionResult partition_graph(const WeightedCsr& g,
                                const PartitionOptions& opt) {
  CLOUDQC_CHECK(opt.num_parts >= 1);
  CLOUDQC_CHECK(opt.imbalance >= 0.0);
  const int k = opt.num_parts;
  Rng rng(opt.seed);

  PartitionResult out;
  out.num_parts = k;
  if (g.num_nodes() == 0) {
    out.part_weights.assign(static_cast<std::size_t>(k), 0.0);
    return out;
  }
  if (k == 1) {
    out.part.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    out.edge_cut = 0.0;
    out.part_weights = part_weights(g, out.part, k);
    return out;
  }

  const double total = g.total_node_weight();
  std::vector<double> target(static_cast<std::size_t>(k), total / k);
  // Balance ceiling per level: the ε bound, but never tighter than what a
  // single node of that level's granularity makes achievable (METIS-style
  // adaptive bound — coarse nodes are heavy, so the ceiling loosens there
  // and tightens as we uncoarsen).
  auto ceiling_for = [&](const WeightedCsr& level) {
    double max_node = 0.0;
    for (NodeId u = 0; u < level.num_nodes(); ++u) {
      max_node = std::max(max_node, level.node_weight(u));
    }
    return std::max((1.0 + opt.imbalance) * total / k, total / k + max_node);
  };

  // --- 1. Coarsening ---------------------------------------------------
  // Level 0 is the caller's graph, referenced rather than copied; level
  // l > 0 is coarse[l - 1].graph.
  std::vector<CoarseLevel> coarse;
  auto level = [&](std::size_t l) -> const WeightedCsr& {
    return l == 0 ? g : coarse[l - 1].graph;
  };
  const NodeId coarse_goal =
      std::max<NodeId>(static_cast<NodeId>(4 * k), 24);
  while (level(coarse.size()).num_nodes() > coarse_goal) {
    const WeightedCsr& fine = level(coarse.size());
    auto [to_coarse, cn] = heavy_edge_matching(fine, rng);
    // Matching stagnated (e.g. graph with no edges): stop coarsening.
    if (cn >= fine.num_nodes()) break;
    WeightedCsr contracted = contract(fine, to_coarse, cn);
    coarse.push_back({std::move(to_coarse), std::move(contracted)});
  }

  // --- 2. Initial partition at the coarsest level ----------------------
  const WeightedCsr& coarsest = level(coarse.size());
  std::vector<int> part;
  double best_cut = std::numeric_limits<double>::infinity();
  // A few random restarts; keep the best refined result.
  constexpr int kRestarts = 4;
  std::vector<std::vector<NodeId>> frontier(static_cast<std::size_t>(k));
  for (auto& fr : frontier) {
    fr.reserve(static_cast<std::size_t>(coarsest.num_nodes()));
  }
  for (int t = 0; t < kRestarts; ++t) {
    auto cand = grow_initial_partition(coarsest, k, rng, target, frontier);
    internal::refine_partition(coarsest, cand, k, ceiling_for(coarsest),
                               opt.refine_passes, rng);
    internal::repair_empty_parts(coarsest, cand, k);
    const double cut = edge_cut(coarsest, cand);
    if (cut < best_cut) {
      best_cut = cut;
      part = std::move(cand);
    }
  }

  // --- 3. Uncoarsen + refine -------------------------------------------
  for (std::size_t lvl = coarse.size(); lvl-- > 0;) {
    part = project(part, coarse[lvl].to_coarse);
    const WeightedCsr& fine = level(lvl);
    internal::refine_partition(fine, part, k, ceiling_for(fine),
                               opt.refine_passes, rng);
    internal::repair_empty_parts(fine, part, k);
  }

  out.part = std::move(part);
  out.edge_cut = edge_cut(g, out.part);
  out.part_weights = part_weights(g, out.part, k);
  return out;
}

}  // namespace cloudqc
