// Differential property suite for the placer's kernels. The library runs
// multilevel partitioning, refinement, Louvain, graph centres and the
// execution-time estimate on one flat weighted CSR, with a sparse refine
// scan, a skip of settled refine visits, per-level Louvain degrees, a
// reused-buffer centre BFS and a per-hop remote-gate price. The reference
// copies below are the straightforward Graph-based versions those kernels
// replaced; every output must match them exactly (==, not near), over
// random graphs that cover:
//   - integer weights with many equal-weight ties, and fractional weights
//     (where summation order shows in the last bit);
//   - isolated nodes and disconnected components;
//   - self-loops (Louvain's aggregate levels make them too);
//   - k = 2..20;
//   - refine starts with an overweight part.
//
// Iteration count: CLOUDQC_PROPERTY_ITERS (default 500 graphs per test;
// the sanitizer CI job lowers it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "cloud/cloud.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "community/louvain.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"
#include "placement/cost.hpp"
#include "placement/detail.hpp"
#include "sim/epr.hpp"

namespace cloudqc {
namespace {

int property_iters() {
  return static_cast<int>(env_int_or("CLOUDQC_PROPERTY_ITERS", 500));
}

/// Uniform draw in [0, n).
int draw(Rng& rng, int n) {
  return static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
}

// ------------------------------------------------------------- reference

namespace reference {

std::size_t at(NodeId u) { return static_cast<std::size_t>(u); }

void refine_partition(const Graph& g, std::vector<int>& part, int k,
                      double max_part_weight, int passes, Rng& rng) {
  if (k <= 1 || g.num_nodes() == 0) return;
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    weight[static_cast<std::size_t>(part[at(u)])] += g.node_weight(u);
  }
  std::vector<NodeId> order(at(g.num_nodes()));
  std::iota(order.begin(), order.end(), 0);
  for (int pass = 0; pass < passes; ++pass) {
    rng.shuffle(order);
    bool moved = false;
    for (const NodeId u : order) {
      const int from = part[at(u)];
      std::vector<double> conn(static_cast<std::size_t>(k), 0.0);
      for (const Edge& e : g.neighbors(u)) {
        if (e.to == u) continue;
        conn[static_cast<std::size_t>(part[at(e.to)])] += e.weight;
      }
      const double internal = conn[static_cast<std::size_t>(from)];
      const double wu = g.node_weight(u);
      const bool overweight =
          weight[static_cast<std::size_t>(from)] > max_part_weight;
      int best_to = -1;
      double best_gain = -std::numeric_limits<double>::infinity();
      for (int to = 0; to < k; ++to) {
        if (to == from) continue;
        if (weight[static_cast<std::size_t>(to)] + wu > max_part_weight) {
          continue;
        }
        if (conn[static_cast<std::size_t>(to)] == 0.0 && !overweight) continue;
        const double gain = conn[static_cast<std::size_t>(to)] - internal;
        if (gain > best_gain) {
          best_gain = gain;
          best_to = to;
        }
      }
      if (best_to >= 0 && (best_gain > 0.0 || overweight)) {
        weight[static_cast<std::size_t>(from)] -= wu;
        weight[static_cast<std::size_t>(best_to)] += wu;
        part[at(u)] = best_to;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

void repair_empty_parts(const Graph& g, std::vector<int>& part, int k) {
  if (g.num_nodes() < static_cast<NodeId>(k)) return;
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (int p : part) ++count[static_cast<std::size_t>(p)];
  for (int empty = 0; empty < k; ++empty) {
    if (count[static_cast<std::size_t>(empty)] > 0) continue;
    const int donor = static_cast<int>(
        std::max_element(count.begin(), count.end()) - count.begin());
    NodeId pick = kInvalidNode;
    double pick_conn = std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (part[at(u)] != donor) continue;
      double c = 0.0;
      for (const Edge& e : g.neighbors(u)) {
        if (e.to != u && part[at(e.to)] == donor) c += e.weight;
      }
      if (c < pick_conn) {
        pick_conn = c;
        pick = u;
      }
    }
    part[at(pick)] = empty;
    --count[static_cast<std::size_t>(donor)];
    ++count[static_cast<std::size_t>(empty)];
  }
}

double edge_cut(const Graph& g, const std::vector<int>& part) {
  double cut = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      if (e.to >= u && part[at(e.to)] != part[at(u)]) cut += e.weight;
    }
  }
  return cut;
}

std::vector<double> part_weights(const Graph& g, const std::vector<int>& part,
                                 int k) {
  std::vector<double> w(static_cast<std::size_t>(k), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    w[static_cast<std::size_t>(part[at(u)])] += g.node_weight(u);
  }
  return w;
}

std::pair<std::vector<NodeId>, NodeId> heavy_edge_matching(const Graph& g,
                                                           Rng& rng) {
  const auto n = at(g.num_nodes());
  std::vector<NodeId> match(n, kInvalidNode);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (const NodeId u : order) {
    if (match[at(u)] != kInvalidNode) continue;
    NodeId best = kInvalidNode;
    double best_w = -1.0;
    for (const Edge& e : g.neighbors(u)) {
      if (e.to == u || match[at(e.to)] != kInvalidNode) continue;
      if (e.weight > best_w) {
        best_w = e.weight;
        best = e.to;
      }
    }
    if (best == kInvalidNode) {
      match[at(u)] = u;
    } else {
      match[at(u)] = best;
      match[at(best)] = u;
    }
  }
  std::vector<NodeId> to_coarse(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (to_coarse[at(u)] != kInvalidNode) continue;
    to_coarse[at(u)] = next;
    if (match[at(u)] != u) to_coarse[at(match[at(u)])] = next;
    ++next;
  }
  return {std::move(to_coarse), next};
}

Graph contract(const Graph& g, const std::vector<NodeId>& to_coarse,
               NodeId coarse_n) {
  Graph c(coarse_n);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId cu = to_coarse[at(u)];
    c.set_node_weight(cu, c.node_weight(cu) + g.node_weight(u));
  }
  for (NodeId cu = 0; cu < coarse_n; ++cu) {
    c.set_node_weight(cu, c.node_weight(cu) - 1.0);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      if (e.to < u) continue;
      const NodeId cu = to_coarse[at(u)];
      const NodeId cv = to_coarse[at(e.to)];
      if (cu != cv) c.add_edge(cu, cv, e.weight);
    }
  }
  return c;
}

std::vector<int> grow_initial_partition(const Graph& g, int k, Rng& rng,
                                        const std::vector<double>& target) {
  const auto n = at(g.num_nodes());
  std::vector<int> part(n, -1);
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<std::vector<NodeId>> frontier(static_cast<std::size_t>(k));
  int seeded = 0;
  for (const NodeId u : order) {
    if (seeded == k) break;
    part[at(u)] = seeded;
    weight[static_cast<std::size_t>(seeded)] += g.node_weight(u);
    frontier[static_cast<std::size_t>(seeded)].push_back(u);
    ++seeded;
  }
  bool progress = true;
  while (progress) {
    progress = false;
    int best_r = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < k; ++r) {
      if (frontier[static_cast<std::size_t>(r)].empty()) continue;
      const double ratio = weight[static_cast<std::size_t>(r)] /
                           target[static_cast<std::size_t>(r)];
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_r = r;
      }
    }
    if (best_r < 0) break;
    auto& fr = frontier[static_cast<std::size_t>(best_r)];
    NodeId pick = kInvalidNode;
    double pick_w = -1.0;
    for (std::size_t i = 0; i < fr.size(); ++i) {
      bool live = false;
      for (const Edge& e : g.neighbors(fr[i])) {
        if (part[at(e.to)] == -1) {
          live = true;
          if (e.weight > pick_w) {
            pick_w = e.weight;
            pick = e.to;
          }
        }
      }
      if (!live) {
        std::swap(fr[i], fr.back());
        fr.pop_back();
        --i;
      }
    }
    if (pick == kInvalidNode) {
      fr.clear();
      progress = true;
      continue;
    }
    part[at(pick)] = best_r;
    weight[static_cast<std::size_t>(best_r)] += g.node_weight(pick);
    fr.push_back(pick);
    progress = true;
  }
  for (const NodeId u : order) {
    if (part[at(u)] != -1) continue;
    const int r = static_cast<int>(
        std::min_element(weight.begin(), weight.end()) - weight.begin());
    part[at(u)] = r;
    weight[static_cast<std::size_t>(r)] += g.node_weight(u);
  }
  return part;
}

PartitionResult partition_graph(const Graph& g, const PartitionOptions& opt) {
  const int k = opt.num_parts;
  Rng rng(opt.seed);
  PartitionResult out;
  out.num_parts = k;
  if (g.num_nodes() == 0) {
    out.part_weights.assign(static_cast<std::size_t>(k), 0.0);
    return out;
  }
  if (k == 1) {
    out.part.assign(at(g.num_nodes()), 0);
    out.part_weights = reference::part_weights(g, out.part, k);
    return out;
  }
  const double total = g.total_node_weight();
  const std::vector<double> target(static_cast<std::size_t>(k), total / k);
  auto ceiling_for = [&](const Graph& level) {
    double max_node = 0.0;
    for (NodeId u = 0; u < level.num_nodes(); ++u) {
      max_node = std::max(max_node, level.node_weight(u));
    }
    return std::max((1.0 + opt.imbalance) * total / k, total / k + max_node);
  };
  std::vector<Graph> levels{g};
  std::vector<std::vector<NodeId>> maps;
  const NodeId coarse_goal = std::max<NodeId>(static_cast<NodeId>(4 * k), 24);
  while (levels.back().num_nodes() > coarse_goal) {
    auto [to_coarse, cn] = heavy_edge_matching(levels.back(), rng);
    if (cn >= levels.back().num_nodes()) break;
    Graph contracted = contract(levels.back(), to_coarse, cn);
    maps.push_back(std::move(to_coarse));
    levels.push_back(std::move(contracted));
  }
  const Graph& coarsest = levels.back();
  std::vector<int> part;
  double best_cut = std::numeric_limits<double>::infinity();
  for (int t = 0; t < 4; ++t) {
    auto cand = grow_initial_partition(coarsest, k, rng, target);
    refine_partition(coarsest, cand, k, ceiling_for(coarsest),
                     opt.refine_passes, rng);
    repair_empty_parts(coarsest, cand, k);
    const double cut = reference::edge_cut(coarsest, cand);
    if (cut < best_cut) {
      best_cut = cut;
      part = std::move(cand);
    }
  }
  for (std::size_t lvl = maps.size(); lvl-- > 0;) {
    std::vector<int> fine(maps[lvl].size());
    for (std::size_t u = 0; u < fine.size(); ++u) {
      fine[u] = part[at(maps[lvl][u])];
    }
    part = std::move(fine);
    refine_partition(levels[lvl], part, k, ceiling_for(levels[lvl]),
                     opt.refine_passes, rng);
    repair_empty_parts(levels[lvl], part, k);
  }
  out.part = std::move(part);
  out.edge_cut = reference::edge_cut(g, out.part);
  out.part_weights = reference::part_weights(g, out.part, k);
  return out;
}

int densify(std::vector<int>& community) {
  std::vector<int> remap(community.size(), -1);
  int next = 0;
  for (int& c : community) {
    if (remap[static_cast<std::size_t>(c)] < 0) {
      remap[static_cast<std::size_t>(c)] = next++;
    }
    c = remap[static_cast<std::size_t>(c)];
  }
  return next;
}

double modularity(const Graph& g, const std::vector<int>& community) {
  const double m = g.total_edge_weight();
  if (m == 0.0) return 0.0;
  int k = 0;
  for (int c : community) k = std::max(k, c + 1);
  std::vector<double> in(static_cast<std::size_t>(k), 0.0);
  std::vector<double> tot(static_cast<std::size_t>(k), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const int cu = community[at(u)];
    for (const Edge& e : g.neighbors(u)) {
      if (e.to < u || community[at(e.to)] != cu) continue;
      in[static_cast<std::size_t>(cu)] +=
          (e.to == u) ? e.weight : 2.0 * e.weight;
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    tot[static_cast<std::size_t>(community[at(u)])] += g.weighted_degree(u);
  }
  double q = 0.0;
  for (int c = 0; c < k; ++c) {
    const double tc = tot[static_cast<std::size_t>(c)];
    q += in[static_cast<std::size_t>(c)] / (2.0 * m) -
         (tc / (2.0 * m)) * (tc / (2.0 * m));
  }
  return q;
}

std::pair<std::vector<int>, double> local_move(const Graph& g, Rng& rng) {
  const auto n = at(g.num_nodes());
  const double two_m = 2.0 * g.total_edge_weight();
  std::vector<int> comm(n);
  std::iota(comm.begin(), comm.end(), 0);
  if (two_m == 0.0) return {comm, 0.0};
  std::vector<double> tot(n);
  for (NodeId u = 0; u < g.num_nodes(); ++u) tot[at(u)] = g.weighted_degree(u);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const double q_before = reference::modularity(g, comm);
  std::vector<std::pair<int, double>> neigh;
  bool improved = true;
  int guard = 0;
  while (improved && guard++ < 100) {
    improved = false;
    for (const NodeId u : order) {
      const int old_c = comm[at(u)];
      const double ku = g.weighted_degree(u);
      neigh.clear();
      auto weight_to = [&](int c) -> double& {
        for (auto& [cc, w] : neigh) {
          if (cc == c) return w;
        }
        neigh.emplace_back(c, 0.0);
        return neigh.back().second;
      };
      weight_to(old_c);
      for (const Edge& e : g.neighbors(u)) {
        if (e.to != u) weight_to(comm[at(e.to)]) += e.weight;
      }
      tot[static_cast<std::size_t>(old_c)] -= ku;
      double w_old = 0.0;
      for (const auto& [c, w] : neigh) {
        if (c == old_c) w_old = w;
      }
      int best_c = old_c;
      double best_delta = w_old / (two_m / 2.0) -
                          ku * tot[static_cast<std::size_t>(old_c)] /
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
        comm[at(u)] = best_c;
        improved = true;
      }
    }
  }
  return {comm, reference::modularity(g, comm) - q_before};
}

Graph aggregate(const Graph& g, const std::vector<int>& comm, int k) {
  Graph agg(static_cast<NodeId>(k));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      if (e.to < u) continue;
      agg.add_edge(comm[at(u)], comm[at(e.to)], e.weight);
    }
  }
  return agg;
}

CommunityResult detect_communities(const Graph& g, const LouvainOptions& opt) {
  CommunityResult out;
  const auto n = at(g.num_nodes());
  out.community.resize(n);
  std::iota(out.community.begin(), out.community.end(), 0);
  if (n == 0) return out;
  Rng rng(opt.seed);
  Graph level_graph = g;
  std::vector<int> node_to_level(n);
  std::iota(node_to_level.begin(), node_to_level.end(), 0);
  for (int level = 0; level < opt.max_levels; ++level) {
    auto [comm, gain] = local_move(level_graph, rng);
    const int k = densify(comm);
    for (std::size_t u = 0; u < n; ++u) {
      node_to_level[u] = comm[static_cast<std::size_t>(node_to_level[u])];
    }
    if (k >= level_graph.num_nodes() || gain < opt.min_gain) break;
    level_graph = aggregate(level_graph, comm, k);
  }
  out.community = node_to_level;
  out.num_communities = densify(out.community);
  out.modularity = reference::modularity(g, out.community);
  return out;
}

NodeId graph_center_of(const Graph& g, const std::vector<NodeId>& subset) {
  if (subset.empty()) return kInvalidNode;
  if (subset.size() == 1) return subset.front();
  std::vector<NodeId> map;
  const Graph sub = induced_subgraph(g, subset, &map);
  const auto comp = connected_components(sub);
  int num_comp = 0;
  for (int c : comp) num_comp = std::max(num_comp, c + 1);
  std::vector<int> comp_size(static_cast<std::size_t>(num_comp), 0);
  for (int c : comp) ++comp_size[static_cast<std::size_t>(c)];
  const int big = static_cast<int>(
      std::max_element(comp_size.begin(), comp_size.end()) -
      comp_size.begin());
  NodeId best = kInvalidNode;
  int best_ecc = std::numeric_limits<int>::max();
  double best_deg = -1.0;
  for (NodeId u = 0; u < sub.num_nodes(); ++u) {
    if (comp[at(u)] != big) continue;
    const auto dist = bfs_distances(sub, u);
    int ecc = 0;
    for (NodeId v = 0; v < sub.num_nodes(); ++v) {
      if (comp[at(v)] == big) ecc = std::max(ecc, dist[at(v)]);
    }
    const double deg = sub.weighted_degree(u);
    if (ecc < best_ecc || (ecc == best_ecc && deg > best_deg)) {
      best_ecc = ecc;
      best_deg = deg;
      best = u;
    }
  }
  return map[at(best)];
}

Graph partition_interaction_graph(const Graph& interaction,
                                  const std::vector<int>& part, int k) {
  Graph pg(static_cast<NodeId>(k));
  std::vector<double> sizes(static_cast<std::size_t>(k), 0.0);
  for (std::size_t q = 0; q < part.size(); ++q) {
    sizes[static_cast<std::size_t>(part[q])] +=
        interaction.node_weight(static_cast<NodeId>(q));
  }
  for (int p = 0; p < k; ++p) {
    pg.set_node_weight(p, sizes[static_cast<std::size_t>(p)]);
  }
  for (const auto& e : interaction.edges()) {
    const int pu = part[at(e.u)];
    const int pv = part[at(e.v)];
    if (pu != pv) pg.add_edge(pu, pv, e.weight);
  }
  return pg;
}

double estimate_execution_time(const Circuit& circuit, const CircuitDag& dag,
                               const QuantumCloud& cloud,
                               const std::vector<QpuId>& qubit_to_qpu) {
  const LatencyModel& lat = cloud.config().latency;
  const EprModel epr(cloud.config().epr_success_prob);
  std::vector<double> node_cost(circuit.num_gates());
  for (std::size_t i = 0; i < circuit.num_gates(); ++i) {
    const Gate& g = circuit.gates()[i];
    if (g.kind == GateKind::kMeasure) {
      node_cost[i] = lat.t_measure;
    } else if (g.kind == GateKind::kBarrier) {
      node_cost[i] = 0.0;
    } else if (!g.two_qubit()) {
      node_cost[i] = lat.t_1q;
    } else {
      const QpuId a = qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])];
      const QpuId b = qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])];
      if (a == b) {
        node_cost[i] = lat.t_2q;
      } else {
        const int hops = cloud.distance(a, b);
        node_cost[i] = epr.expected_rounds(hops, 1) * lat.t_epr +
                       lat.remote_gate_overhead();
      }
    }
  }
  return dag.critical_path(node_cost);
}

}  // namespace reference

// ------------------------------------------------------------- generators

/// Edge or node weight: small integers (many ties), or fractional values
/// whose sums round differently in different orders.
double draw_weight(Rng& rng, bool fractional) {
  static constexpr double kFractional[] = {0.1, 0.2, 0.7, 1.3, 2.9};
  return fractional ? kFractional[rng.below(5)]
                    : static_cast<double>(1 + rng.below(3));
}

/// A random graph of 1..max_nodes nodes split into up to four components,
/// with some isolated nodes, repeated pairs (accumulated weights) and,
/// when `self_loops`, a few self-loops.
Graph random_graph(Rng& rng, NodeId max_nodes, bool fractional,
                   bool self_loops) {
  const NodeId n = 1 + draw(rng, max_nodes);
  Graph g(n);
  const bool weighted_nodes = rng.chance(0.3);
  const int num_comp = static_cast<int>(1 + rng.below(4));
  std::vector<std::vector<NodeId>> comps(static_cast<std::size_t>(num_comp));
  for (NodeId u = 0; u < n; ++u) {
    if (weighted_nodes) g.set_node_weight(u, draw_weight(rng, fractional));
    if (rng.chance(0.1)) continue;  // isolated
    comps[rng.below(static_cast<std::uint64_t>(num_comp))].push_back(u);
  }
  const auto edges = rng.below(static_cast<std::uint64_t>(3 * n) + 1);
  for (std::uint64_t i = 0; i < edges; ++i) {
    const auto& comp = comps[rng.below(static_cast<std::uint64_t>(num_comp))];
    if (comp.size() < 2) continue;
    const NodeId u = comp[rng.below(comp.size())];
    const NodeId v = comp[rng.below(comp.size())];
    if (u == v && !self_loops) continue;
    g.add_edge(u, v, draw_weight(rng, fractional));
  }
  return g;
}

/// True when `csr` lists exactly g's neighbours, weights and totals, in
/// g's order.
::testing::AssertionResult same_lists(const WeightedCsr& csr, const Graph& g) {
  if (csr.num_nodes() != g.num_nodes()) {
    return ::testing::AssertionFailure() << "node count";
  }
  if (csr.total_edge_weight() != g.total_edge_weight()) {
    return ::testing::AssertionFailure() << "total edge weight";
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto& adj = g.neighbors(u);
    if (csr.node_weight(u) != g.node_weight(u) || csr.degree(u) != adj.size()) {
      return ::testing::AssertionFailure() << "node " << u;
    }
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (csr.to(csr.begin(u) + i) != adj[i].to ||
          csr.weight(csr.begin(u) + i) != adj[i].weight) {
        return ::testing::AssertionFailure() << "node " << u << " entry " << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------------------------ tests

TEST(PlacerKernelProperty, CsrBuilderMatchesGraphAddEdge) {
  Rng rng(101);
  for (int iter = 0; iter < property_iters(); ++iter) {
    const auto n = static_cast<NodeId>(1 + rng.below(40));
    const bool fractional = rng.chance(0.5);
    std::vector<double> node_weights(static_cast<std::size_t>(n));
    Graph g(n);
    for (NodeId u = 0; u < n; ++u) {
      node_weights[static_cast<std::size_t>(u)] = draw_weight(rng, fractional);
      g.set_node_weight(u, node_weights[static_cast<std::size_t>(u)]);
    }
    std::vector<Graph::FlatEdge> stream;
    const auto m = rng.below(static_cast<std::uint64_t>(4 * n));
    for (std::uint64_t i = 0; i < m; ++i) {
      // Few distinct endpoints, so pairs repeat in both orientations.
      const NodeId u = draw(rng, std::min<NodeId>(n, 8));
      const NodeId v = draw(rng, n);
      stream.push_back({u, v, draw_weight(rng, fractional)});
      g.add_edge(u, v, stream.back().weight);
    }
    ASSERT_TRUE(same_lists(WeightedCsr(node_weights, stream), g)) << iter;
    ASSERT_TRUE(same_lists(WeightedCsr(g), g)) << iter;
  }
}

TEST(PlacerKernelProperty, RefineMatchesReference) {
  Rng rng(202);
  int overweight_starts = 0;
  for (int iter = 0; iter < property_iters(); ++iter) {
    const Graph g = random_graph(rng, 60, rng.chance(0.3), rng.chance(0.3));
    const int k = static_cast<int>(2 + rng.below(19));
    // Biased start: part 0 takes about half the nodes, so it usually
    // starts over the ceiling.
    std::vector<int> part(static_cast<std::size_t>(g.num_nodes()));
    for (auto& p : part) {
      p = rng.chance(0.5) ? 0 : draw(rng, k);
    }
    const double total = g.total_node_weight();
    const double ceiling =
        (1.0 + 0.1 * static_cast<double>(rng.below(4))) * total / k +
        (rng.chance(0.5) ? 1.0 : 0.0);
    if (reference::part_weights(g, part, k)[0] > ceiling) ++overweight_starts;
    const int passes = static_cast<int>(1 + rng.below(8));
    const std::uint64_t seed = rng();

    std::vector<int> want = part;
    Rng want_rng(seed);
    reference::refine_partition(g, want, k, ceiling, passes, want_rng);
    std::vector<int> got = part;
    Rng got_rng(seed);
    internal::refine_partition(WeightedCsr(g), got, k, ceiling, passes,
                               got_rng);
    ASSERT_EQ(got, want) << "iter " << iter << ", k " << k;
    ASSERT_EQ(got_rng(), want_rng()) << "iter " << iter;

    // Repair after a refine, and on a start that leaves parts empty.
    reference::repair_empty_parts(g, want, k);
    internal::repair_empty_parts(WeightedCsr(g), got, k);
    ASSERT_EQ(got, want) << "iter " << iter;
    std::vector<int> sparse(part.size());
    for (auto& p : sparse) p = static_cast<int>(rng.below(2));
    std::vector<int> sparse_want = sparse;
    reference::repair_empty_parts(g, sparse_want, k);
    internal::repair_empty_parts(WeightedCsr(g), sparse, k);
    ASSERT_EQ(sparse, sparse_want) << "iter " << iter;
  }
  EXPECT_GT(overweight_starts, property_iters() / 4);
}

TEST(PlacerKernelProperty, PartitionMatchesReference) {
  Rng rng(303);
  for (int iter = 0; iter < property_iters(); ++iter) {
    const Graph g = random_graph(rng, 120, rng.chance(0.3), rng.chance(0.2));
    PartitionOptions opt;
    opt.num_parts = static_cast<int>(2 + rng.below(19));
    opt.imbalance = 0.05 * static_cast<double>(rng.below(5));
    opt.refine_passes = static_cast<int>(1 + rng.below(8));
    opt.seed = rng();
    const PartitionResult want = reference::partition_graph(g, opt);
    const WeightedCsr csr(g);
    for (const PartitionResult& got :
         {partition_graph(g, opt), partition_graph(csr, opt)}) {
      ASSERT_EQ(got.part, want.part) << "iter " << iter;
      ASSERT_EQ(got.edge_cut, want.edge_cut) << "iter " << iter;
      ASSERT_EQ(got.part_weights, want.part_weights) << "iter " << iter;
    }
    ASSERT_TRUE(same_lists(
        detail::partition_interaction_graph(csr, want.part, opt.num_parts),
        reference::partition_interaction_graph(g, want.part, opt.num_parts)))
        << "iter " << iter;
  }
}

TEST(PlacerKernelProperty, LouvainMatchesReference) {
  Rng rng(404);
  for (int iter = 0; iter < property_iters(); ++iter) {
    const Graph g = random_graph(rng, 60, rng.chance(0.5), rng.chance(0.5));
    LouvainOptions opt;
    opt.seed = rng();
    const CommunityResult want = reference::detect_communities(g, opt);
    for (const CommunityResult& got :
         {detect_communities(g, opt),
          detect_communities(WeightedCsr(g), opt)}) {
      ASSERT_EQ(got.community, want.community) << "iter " << iter;
      ASSERT_EQ(got.num_communities, want.num_communities) << "iter " << iter;
      ASSERT_EQ(got.modularity, want.modularity) << "iter " << iter;
    }
  }
}

TEST(PlacerKernelProperty, GraphCenterMatchesReference) {
  Rng rng(505);
  for (int iter = 0; iter < property_iters(); ++iter) {
    const Graph g = random_graph(rng, 40, rng.chance(0.5), rng.chance(0.3));
    std::vector<NodeId> all(static_cast<std::size_t>(g.num_nodes()));
    std::iota(all.begin(), all.end(), 0);
    const NodeId want = reference::graph_center_of(g, all);
    ASSERT_EQ(graph_center(g), want) << "iter " << iter;
    ASSERT_EQ(graph_center(WeightedCsr(g)), want) << "iter " << iter;
    // An ordered subset: graph_center_of breaks ties by position.
    std::vector<NodeId> subset;
    for (const NodeId u : all) {
      if (rng.chance(0.6)) subset.push_back(u);
    }
    rng.shuffle(subset);
    ASSERT_EQ(graph_center_of(g, subset), reference::graph_center_of(g, subset))
        << "iter " << iter;
  }
}

TEST(PlacerKernelProperty, ExecutionTimeAndScoreMatchReference) {
  Rng rng(606);
  for (int iter = 0; iter < property_iters(); ++iter) {
    const auto num_qpus = static_cast<NodeId>(2 + rng.below(8));
    CloudConfig cfg;
    cfg.num_qpus = num_qpus;
    cfg.epr_success_prob = 0.05 + 0.9 * rng.uniform();
    // A line, or two disconnected lines (hop distance -1 between them).
    Graph topo = line_topology(num_qpus);
    if (rng.chance(0.3)) {
      topo = Graph(num_qpus);
      for (NodeId q = 0; q + 1 < num_qpus; ++q) {
        if (q + 1 != num_qpus / 2) topo.add_edge(q, q + 1);
      }
    }
    const QuantumCloud cloud(cfg, std::move(topo));
    const auto n = static_cast<QubitId>(2 + rng.below(30));
    Circuit c("rand", n);
    const auto gates = rng.below(200);
    for (std::uint64_t i = 0; i < gates; ++i) {
      const QubitId a = draw(rng, n);
      QubitId b = draw(rng, n - 1);
      if (b >= a) ++b;
      switch (rng.below(4)) {
        case 0: c.h(a); break;
        case 1: c.measure(a); break;
        default: c.cx(a, b); break;
      }
    }
    std::vector<QpuId> map(static_cast<std::size_t>(n));
    for (auto& q : map) q = draw(rng, num_qpus);
    const CircuitDag dag(c);
    // A remote gate across disconnected QPUs is an error in both.
    double want = 0.0;
    bool want_threw = false;
    try {
      want = reference::estimate_execution_time(c, dag, cloud, map);
    } catch (const std::exception&) {
      want_threw = true;
    }
    if (want_threw) {
      EXPECT_ANY_THROW(estimate_execution_time(c, dag, cloud, map));
      continue;
    }
    const double got = estimate_execution_time(c, dag, cloud, map);
    // Bitwise, so an infinite or NaN estimate must match too.
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "iter " << iter << ": " << got << " vs " << want;
    // finalize_placement scores cost, remote ops and time in one pass.
    const Placement p = finalize_placement(c, dag, cloud, map, 1.0, 1.0);
    ASSERT_EQ(std::memcmp(&p.est_time, &want, sizeof want), 0) << iter;
    ASSERT_EQ(p.comm_cost, placement_comm_cost(c, cloud, map)) << iter;
    ASSERT_EQ(p.remote_ops, placement_remote_ops(c, map)) << iter;
  }
}

}  // namespace
}  // namespace cloudqc
