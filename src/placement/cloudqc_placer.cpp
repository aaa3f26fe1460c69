// CloudQC circuit placement (Algorithm 1 + Algorithm 2 of the paper) and
// the shared helpers used by the CloudQC-BFS variant.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "community/louvain.hpp"
#include "graph/algorithms.hpp"
#include "partition/partitioner.hpp"
#include "placement/cost.hpp"
#include "placement/detail.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement.hpp"

namespace cloudqc {
namespace detail {

WeightedCsr partition_interaction_graph(const WeightedCsr& interaction,
                                        const std::vector<int>& part, int k) {
  CLOUDQC_CHECK(part.size() ==
                static_cast<std::size_t>(interaction.num_nodes()));
  std::vector<double> sizes(static_cast<std::size_t>(k), 0.0);
  for (std::size_t q = 0; q < part.size(); ++q) {
    CLOUDQC_CHECK(part[q] >= 0 && part[q] < k);
    sizes[static_cast<std::size_t>(part[q])] +=
        interaction.node_weight(static_cast<NodeId>(q));
  }
  // Each undirected edge once (to >= u), in Graph::edges() order.
  std::vector<Graph::FlatEdge> cut;
  for (NodeId u = 0; u < interaction.num_nodes(); ++u) {
    const int pu = part[static_cast<std::size_t>(u)];
    for (std::size_t i = interaction.begin(u); i < interaction.end(u); ++i) {
      const NodeId v = interaction.to(i);
      const int pv = part[static_cast<std::size_t>(v)];
      if (v >= u && pu != pv) cut.push_back({pu, pv, interaction.weight(i)});
    }
  }
  return WeightedCsr(std::move(sizes), cut);
}

std::optional<std::vector<QpuId>> select_qpus_by_community(
    const QuantumCloud& cloud, const WeightedCsr& weighted, int needed_qubits,
    std::uint64_t seed, int min_qpus) {
  if (cloud.total_free_computing() < needed_qubits) return std::nullopt;

  const CommunityResult communities = detect_communities(weighted, seed);
  const auto members = community_members(communities);

  // Free capacity per community.
  std::vector<int> capacity(members.size(), 0);
  std::vector<int> hosts(members.size(), 0);  // QPUs with any free capacity
  for (std::size_t c = 0; c < members.size(); ++c) {
    for (const QpuId q : members[c]) {
      capacity[c] += cloud.qpu(q).free_computing();
      if (cloud.qpu(q).free_computing() > 0) ++hosts[c];
    }
  }

  // Best-fit: the smallest community capacity that still fits (and offers
  // enough host QPUs), so large resource pools stay intact for future jobs
  // (paper design goal 2).
  int best = -1;
  for (std::size_t c = 0; c < members.size(); ++c) {
    if (capacity[c] < needed_qubits || hosts[c] < min_qpus) continue;
    if (best < 0 || capacity[c] < capacity[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(c);
    }
  }
  if (best >= 0) return members[static_cast<std::size_t>(best)];

  // No single community fits: grow from the largest-capacity community,
  // repeatedly absorbing the community nearest to the current selection.
  best = static_cast<int>(std::max_element(capacity.begin(), capacity.end()) -
                          capacity.begin());
  std::vector<char> taken(members.size(), 0);
  std::vector<QpuId> selected = members[static_cast<std::size_t>(best)];
  int have = capacity[static_cast<std::size_t>(best)];
  int have_hosts = hosts[static_cast<std::size_t>(best)];
  taken[static_cast<std::size_t>(best)] = 1;
  while (have < needed_qubits || have_hosts < min_qpus) {
    int next = -1;
    int next_dist = std::numeric_limits<int>::max();
    for (std::size_t c = 0; c < members.size(); ++c) {
      if (taken[c] || capacity[c] == 0) continue;
      int d = std::numeric_limits<int>::max();
      for (const QpuId a : selected) {
        for (const QpuId b : members[c]) {
          d = std::min(d, cloud.distance(a, b));
        }
      }
      if (d < next_dist) {
        next_dist = d;
        next = static_cast<int>(c);
      }
    }
    if (next < 0) return std::nullopt;  // nothing left to absorb
    taken[static_cast<std::size_t>(next)] = 1;
    have += capacity[static_cast<std::size_t>(next)];
    have_hosts += hosts[static_cast<std::size_t>(next)];
    selected.insert(selected.end(),
                    members[static_cast<std::size_t>(next)].begin(),
                    members[static_cast<std::size_t>(next)].end());
  }
  return selected;
}

std::optional<std::vector<QpuId>> map_partitions(
    const WeightedCsr& part_graph, const QuantumCloud& cloud,
    const std::vector<QpuId>& candidates, CenterMemo& centers) {
  const int k = part_graph.num_nodes();
  if (static_cast<int>(candidates.size()) < k) return std::nullopt;

  // Candidate-set center within the cloud topology.
  auto memo = centers.find(candidates);
  if (memo == centers.end()) {
    memo = centers
               .emplace(candidates,
                        graph_center_of(cloud.topology(), candidates))
               .first;
  }
  const QpuId cloud_center = memo->second;
  const NodeId part_center = graph_center(part_graph);
  if (k == 0) return std::vector<QpuId>{};
  CLOUDQC_CHECK(cloud_center != kInvalidNode && part_center != kInvalidNode);

  std::vector<QpuId> mapping(static_cast<std::size_t>(k), kInvalidNode);
  std::vector<char> used(candidates.size(), 0);

  // Free capacity per candidate and size per partition, read once: the
  // loops below test them for every (partition, candidate) pair.
  std::vector<int> free_cap(candidates.size());
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    free_cap[ci] = cloud.qpu(candidates[ci]).free_computing();
  }
  std::vector<int> part_size(static_cast<std::size_t>(k));
  for (NodeId p = 0; p < k; ++p) {
    part_size[static_cast<std::size_t>(p)] =
        static_cast<int>(std::lround(part_graph.node_weight(p)));
  }

  // Place the partition-graph center on the candidate center (or, if the
  // center QPU is too small, the nearest feasible candidate).
  auto place = [&](NodeId p, QpuId target) -> bool {
    // Find candidate index of `target`, else nearest feasible candidate.
    std::size_t best = candidates.size();
    int best_d = std::numeric_limits<int>::max();
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (used[ci] || free_cap[ci] < part_size[static_cast<std::size_t>(p)]) {
        continue;
      }
      const int d = cloud.distance(candidates[ci], target);
      if (d < best_d) {
        best_d = d;
        best = ci;
      }
    }
    if (best == candidates.size()) return false;
    mapping[static_cast<std::size_t>(p)] = candidates[best];
    used[best] = 1;
    return true;
  };
  if (!place(part_center, cloud_center)) return std::nullopt;

  // Max-adjacency order: repeatedly map the unmapped partition with the
  // strongest connection to the already-mapped set, onto the feasible QPU
  // minimising the distance-weighted communication cost.
  for (int round = 1; round < k; ++round) {
    NodeId next = kInvalidNode;
    double next_conn = -1.0;
    for (NodeId p = 0; p < k; ++p) {
      if (mapping[static_cast<std::size_t>(p)] != kInvalidNode) continue;
      double conn = 0.0;
      for (std::size_t i = part_graph.begin(p); i < part_graph.end(p); ++i) {
        if (mapping[static_cast<std::size_t>(part_graph.to(i))] !=
            kInvalidNode) {
          conn += part_graph.weight(i);
        }
      }
      if (conn > next_conn) {
        next_conn = conn;
        next = p;
      }
    }
    CLOUDQC_CHECK(next != kInvalidNode);

    std::size_t best = candidates.size();
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (used[ci] ||
          free_cap[ci] < part_size[static_cast<std::size_t>(next)]) {
        continue;
      }
      double cost = 0.0;
      for (std::size_t i = part_graph.begin(next); i < part_graph.end(next);
           ++i) {
        const QpuId peer = mapping[static_cast<std::size_t>(part_graph.to(i))];
        if (peer != kInvalidNode) {
          cost += part_graph.weight(i) * cloud.distance(candidates[ci], peer);
        }
      }
      // Unconnected partitions fall back to centrality.
      if (next_conn == 0.0) {
        cost = cloud.distance(candidates[ci], cloud_center);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = ci;
      }
    }
    if (best == candidates.size()) return std::nullopt;
    mapping[static_cast<std::size_t>(next)] = candidates[best];
    used[best] = 1;
  }
  return mapping;
}

}  // namespace detail

namespace {

/// Single-QPU fast path: best-fit QPU able to host the whole circuit.
std::optional<Placement> try_single_qpu(const Circuit& circuit,
                                        const CircuitDag& dag,
                                        const QuantumCloud& cloud,
                                        const PlacerOptions& opts) {
  const int n = circuit.num_qubits();
  QpuId best = kInvalidNode;
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    const int free = cloud.qpu(q).free_computing();
    if (free < n) continue;
    if (best == kInvalidNode ||
        free < cloud.qpu(best).free_computing()) {
      best = q;  // tightest fit preserves big QPUs for future jobs
    }
  }
  if (best == kInvalidNode) return std::nullopt;
  std::vector<QpuId> map(static_cast<std::size_t>(n), best);
  return finalize_placement(circuit, dag, cloud, std::move(map), opts.alpha,
                            opts.beta);
}

/// Smallest k such that the k largest per-QPU free capacities can hold
/// `needed` qubits; 0 when even the whole cloud cannot.
int min_feasible_parts(const QuantumCloud& cloud, int needed) {
  std::vector<int> frees;
  frees.reserve(static_cast<std::size_t>(cloud.num_qpus()));
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    frees.push_back(cloud.qpu(q).free_computing());
  }
  std::sort(frees.rbegin(), frees.rend());
  int have = 0;
  for (std::size_t i = 0; i < frees.size(); ++i) {
    have += frees[i];
    if (have >= needed) return static_cast<int>(i) + 1;
  }
  return 0;
}

enum class QpuSelect { kCommunity, kBfs };

/// The shared Algorithm 1 driver, parameterised on the QPU-set selection
/// strategy (community detection = CloudQC, BFS = CloudQC-BFS).
class CloudQcFamilyPlacer final : public Placer {
 public:
  CloudQcFamilyPlacer(PlacerOptions opts, QpuSelect select)
      : opts_(std::move(opts)), select_(select) {}

  std::string name() const override {
    return select_ == QpuSelect::kCommunity ? "CloudQC" : "CloudQC-BFS";
  }

  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    return place_with_context(circuit, cloud, rng,
                              PlacementContext::for_circuit(circuit));
  }

  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    const int n = circuit.num_qubits();
    if (n == 0) return std::nullopt;

    // Every candidate's time estimate walks the same circuit DAG.
    const CircuitDag dag(circuit);

    // Algorithm 1 line 2: whole circuit fits one QPU.
    if (auto single = try_single_qpu(circuit, dag, cloud, opts_)) {
      return single;
    }

    const int k_min = min_feasible_parts(cloud, n);
    if (k_min == 0) return std::nullopt;
    // As in the paper, k sweeps from the minimum feasible count up to one
    // part per QPU (or per qubit, if there are fewer qubits).
    const int k_max = std::min(cloud.num_qpus(), n);

    // One interaction CSR for the whole imbalance/k sweep: the finest
    // level of every partition, shared with the polish pass's delta-cost
    // engine via the context.
    const WeightedCsr& interaction = *ctx.csr;
    // `cloud` is const for the whole call, so its resource-weighted
    // topology (level 0 of every Louvain run) and the centres of candidate
    // sets are built once per call.
    const WeightedCsr weighted =
        select_ == QpuSelect::kCommunity
            ? WeightedCsr(cloud.resource_weighted_topology())
            : WeightedCsr();
    detail::CenterMemo centers;
    std::optional<Placement> best;

    for (const double alpha : opts_.imbalance_factors) {
      for (int k = std::max(2, k_min); k <= k_max; ++k) {
        PartitionOptions popt;
        popt.num_parts = k;
        popt.imbalance = alpha;
        popt.seed = rng();
        const PartitionResult pres = partition_graph(interaction, popt);

        const WeightedCsr part_graph =
            detail::partition_interaction_graph(interaction, pres.part, k);

        // Capacity slack covers the partition imbalance so parts of up to
        // (1+α)·n/k qubits can still be hosted; min_qpus = k guarantees the
        // mapping step has one candidate per partition.
        const int needed = std::min(
            cloud.total_free_computing(),
            static_cast<int>(std::ceil((1.0 + alpha) * n)));
        const auto candidates =
            select_ == QpuSelect::kCommunity
                ? detail::select_qpus_by_community(cloud, weighted, needed,
                                                   rng(), k)
                : detail::select_qpus_by_bfs(cloud, needed, k);
        if (!candidates.has_value()) continue;

        const auto mapping =
            detail::map_partitions(part_graph, cloud, *candidates, centers);
        if (!mapping.has_value()) continue;

        std::vector<QpuId> qubit_to_qpu(static_cast<std::size_t>(n));
        for (int q = 0; q < n; ++q) {
          qubit_to_qpu[static_cast<std::size_t>(q)] =
              (*mapping)[static_cast<std::size_t>(
                  pres.part[static_cast<std::size_t>(q)])];
        }
        if (!placement_fits(cloud, qubit_to_qpu)) continue;

        // Inequation 6: reject placements that funnel too many remote ops
        // through one QPU's communication qubits.
        if (opts_.max_remote_ops_per_qpu > 0) {
          const auto per_qpu = remote_ops_per_qpu(circuit, qubit_to_qpu,
                                                  cloud.num_qpus());
          bool over = false;
          for (const std::size_t r : per_qpu) {
            if (r > opts_.max_remote_ops_per_qpu) over = true;
          }
          if (over) continue;
        }

        Placement cand = finalize_placement(circuit, dag, cloud,
                                            std::move(qubit_to_qpu),
                                            opts_.alpha, opts_.beta);
        if (!best.has_value() || cand.score > best->score) {
          best = std::move(cand);
        }
      }
    }
    if (best.has_value()) {
      std::vector<QpuId> polished = best->qubit_to_qpu;
      detail::polish_placement(circuit, cloud, polished, rng, ctx);
      best = finalize_placement(circuit, dag, cloud, std::move(polished),
                                opts_.alpha, opts_.beta);
    }
    // Warm start (placement cache near-hit): polish the cached mapping as
    // an extra candidate and keep the better of the two. The sweep result
    // is unchanged, so a warm-started run is never worse than a cold one.
    if (ctx.warm_start != nullptr &&
        ctx.warm_start->size() == static_cast<std::size_t>(n) &&
        placement_fits(cloud, *ctx.warm_start)) {
      std::vector<QpuId> seeded = *ctx.warm_start;
      detail::polish_placement(circuit, cloud, seeded, rng, ctx);
      Placement warm = finalize_placement(circuit, dag, cloud,
                                          std::move(seeded), opts_.alpha,
                                          opts_.beta);
      if (!best.has_value() || better_placement(warm, *best)) {
        best = std::move(warm);
      }
    }
    return best;
  }

 private:
  PlacerOptions opts_;
  QpuSelect select_;
};

}  // namespace

std::unique_ptr<Placer> make_cloudqc_placer(PlacerOptions opts) {
  return std::make_unique<CloudQcFamilyPlacer>(std::move(opts),
                                               QpuSelect::kCommunity);
}

std::unique_ptr<Placer> make_cloudqc_bfs_placer(PlacerOptions opts) {
  return std::make_unique<CloudQcFamilyPlacer>(std::move(opts),
                                               QpuSelect::kBfs);
}

}  // namespace cloudqc
