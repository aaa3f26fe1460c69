// CloudQC circuit placement (Algorithm 1 + Algorithm 2 of the paper) and
// the shared helpers used by the CloudQC-BFS variant.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
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

/// One point of Algorithm 1's imbalance × k sweep, with the seeds it
/// draws. Seeds are drawn for every point before any point runs, so each
/// point is a pure function of itself, the circuit and the cloud.
struct SweepPoint {
  double alpha = 0.0;
  int k = 0;
  /// Qubits the selected QPU set must offer (the same for every k of one
  /// alpha).
  int needed = 0;
  std::uint64_t partition_seed = 0;
  std::uint64_t select_seed = 0;  // community detection only
};

/// Everything the sweep's points share, read-only across workers.
struct SweepInputs {
  const Circuit& circuit;
  const CircuitDag& dag;
  const QuantumCloud& cloud;
  const WeightedCsr& interaction;
  const WeightedCsr& weighted;  // resource-weighted topology (CloudQC)
  const PlacerOptions& opts;
  detail::QpuSelect select;
};

/// Partition, select QPUs, map and score one sweep point; nullopt when the
/// point yields no feasible placement.
std::optional<Placement> evaluate_point(const SweepInputs& in,
                                        const SweepPoint& pt,
                                        detail::CenterMemo& centers) {
  const int n = in.circuit.num_qubits();
  PartitionOptions popt;
  popt.num_parts = pt.k;
  popt.imbalance = pt.alpha;
  popt.seed = pt.partition_seed;
  const PartitionResult pres = partition_graph(in.interaction, popt);

  const WeightedCsr part_graph =
      detail::partition_interaction_graph(in.interaction, pres.part, pt.k);

  // min_qpus = k guarantees the mapping step has one candidate per
  // partition.
  const auto candidates =
      in.select == detail::QpuSelect::kCommunity
          ? detail::select_qpus_by_community(in.cloud, in.weighted, pt.needed,
                                             pt.select_seed, pt.k)
          : detail::select_qpus_by_bfs(in.cloud, pt.needed, pt.k);
  if (!candidates.has_value()) return std::nullopt;

  const auto mapping =
      detail::map_partitions(part_graph, in.cloud, *candidates, centers);
  if (!mapping.has_value()) return std::nullopt;

  std::vector<QpuId> qubit_to_qpu(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    qubit_to_qpu[static_cast<std::size_t>(q)] =
        (*mapping)[static_cast<std::size_t>(
            pres.part[static_cast<std::size_t>(q)])];
  }
  if (!placement_fits(in.cloud, qubit_to_qpu)) return std::nullopt;

  // Inequation 6: reject placements that funnel too many remote ops
  // through one QPU's communication qubits.
  if (in.opts.max_remote_ops_per_qpu > 0) {
    const auto per_qpu =
        remote_ops_per_qpu(in.circuit, qubit_to_qpu, in.cloud.num_qpus());
    for (const std::size_t r : per_qpu) {
      if (r > in.opts.max_remote_ops_per_qpu) return std::nullopt;
    }
  }

  return finalize_placement(in.circuit, in.dag, in.cloud,
                            std::move(qubit_to_qpu), in.opts.alpha,
                            in.opts.beta);
}

/// Evaluate every point, on the caller and up to pool->size() - 1 of
/// `pool`'s workers when given, and return the best by the strict
/// `score >` rule applied in sweep order. Each worker claims points from a
/// shared counter, writes only their slots and keeps its own CenterMemo
/// (its entries are pure functions of the candidate set). A point that
/// throws stores its exception; the lowest-index one is rethrown, which is
/// the one a serial sweep meets first.
std::optional<Placement> run_sweep(const SweepInputs& in,
                                   const std::vector<SweepPoint>& points,
                                   ThreadPool* pool) {
  const std::size_t n = points.size();
  std::vector<std::optional<Placement>> results(n);
  std::vector<std::exception_ptr> errors(n);
  auto run_point = [&](detail::CenterMemo& centers, std::size_t i) {
    try {
      results[i] = evaluate_point(in, points[i], centers);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    detail::CenterMemo centers;
    for (std::size_t i = next++; i < n; i = next++) run_point(centers, i);
  };
  // The caller is one of the pool->size() workers; its helpers come from
  // the pool. Neither can throw: run_point keeps every exception. On a pool
  // worker the helpers could wait behind blocked workers forever, so the
  // caller works alone there (as ThreadPool::parallel_for runs inline).
  const std::size_t helpers =
      pool != nullptr && n > 1 && !ThreadPool::on_any_worker_thread()
          ? std::min(n, static_cast<std::size_t>(pool->size())) - 1
          : 0;
  std::vector<std::future<void>> joined;
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      joined.push_back(pool->submit(work));
    }
  } catch (...) {
    for (auto& f : joined) f.wait();  // they read this frame
    throw;
  }
  work();
  for (auto& f : joined) f.get();

  std::optional<Placement> best;
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    if (results[i].has_value() &&
        (!best.has_value() || results[i]->score > best->score)) {
      best = std::move(results[i]);
    }
  }
  return best;
}

}  // namespace

namespace detail {

std::optional<Placement> place_cloudqc_family(const Circuit& circuit,
                                              const QuantumCloud& cloud,
                                              Rng& rng,
                                              const PlacementContext& ctx,
                                              const PlacerOptions& opts,
                                              QpuSelect select,
                                              ThreadPool* pool) {
  const int n = circuit.num_qubits();
  if (n == 0) return std::nullopt;

  // Every candidate's time estimate walks the same circuit DAG.
  const CircuitDag dag(circuit);

  // Algorithm 1 line 2: whole circuit fits one QPU.
  if (auto single = try_single_qpu(circuit, dag, cloud, opts)) {
    return single;
  }

  const int k_min = min_feasible_parts(cloud, n);
  if (k_min == 0) return std::nullopt;
  // As in the paper, k sweeps from the minimum feasible count up to one
  // part per QPU (or per qubit, if there are fewer qubits).
  const int k_max = std::min(cloud.num_qpus(), n);

  // The seeds of every point, drawn in sweep order whether or not the
  // point later fails, so `rng` reaches the polish pass in the same state
  // however the points run. Capacity slack covers the partition imbalance
  // so parts of up to (1+α)·n/k qubits can still be hosted.
  const int free_total = cloud.total_free_computing();
  std::vector<SweepPoint> points;
  for (const double alpha : opts.imbalance_factors) {
    const int needed = std::min(
        free_total, static_cast<int>(std::ceil((1.0 + alpha) * n)));
    for (int k = std::max(2, k_min); k <= k_max; ++k) {
      SweepPoint pt;
      pt.alpha = alpha;
      pt.k = k;
      pt.needed = needed;
      pt.partition_seed = rng();
      if (select == QpuSelect::kCommunity) pt.select_seed = rng();
      points.push_back(pt);
    }
  }

  // `cloud` is const for the whole call, so the interaction CSR (from the
  // context, shared with the polish pass's delta-cost engine) and the
  // resource-weighted topology (level 0 of every Louvain run) serve every
  // point.
  const WeightedCsr weighted =
      select == QpuSelect::kCommunity
          ? WeightedCsr(cloud.resource_weighted_topology())
          : WeightedCsr();
  const SweepInputs in{circuit, dag, cloud, *ctx.csr, weighted, opts, select};
  std::optional<Placement> best = run_sweep(in, points, pool);

  if (best.has_value()) {
    std::vector<QpuId> polished = best->qubit_to_qpu;
    polish_placement(circuit, cloud, polished, rng, ctx);
    best = finalize_placement(circuit, dag, cloud, std::move(polished),
                              opts.alpha, opts.beta);
  }
  // Warm start (placement cache near-hit): polish the cached mapping as
  // an extra candidate and keep the better of the two. The sweep result
  // is unchanged, so a warm-started run is never worse than a cold one.
  if (ctx.warm_start != nullptr &&
      ctx.warm_start->size() == static_cast<std::size_t>(n) &&
      placement_fits(cloud, *ctx.warm_start)) {
    std::vector<QpuId> seeded = *ctx.warm_start;
    polish_placement(circuit, cloud, seeded, rng, ctx);
    Placement warm = finalize_placement(circuit, dag, cloud, std::move(seeded),
                                        opts.alpha, opts.beta);
    if (!best.has_value() || better_placement(warm, *best)) {
      best = std::move(warm);
    }
  }
  return best;
}

}  // namespace detail

namespace {

/// The sweep's pool: the shared one, except on a pool worker, where the
/// sweep runs inline anyway (so the shared pool is not created for it).
ThreadPool* sweep_pool() {
  return ThreadPool::on_any_worker_thread() ? nullptr : &ThreadPool::shared();
}

/// The CloudQC family's placer, parameterised on the QPU-set selection
/// strategy (community detection = CloudQC, BFS = CloudQC-BFS). Holds no
/// threads: the sweep borrows ThreadPool::shared() per call.
class CloudQcFamilyPlacer final : public Placer {
 public:
  CloudQcFamilyPlacer(PlacerOptions opts, detail::QpuSelect select)
      : opts_(std::move(opts)), select_(select) {}

  std::string name() const override {
    return select_ == detail::QpuSelect::kCommunity ? "CloudQC"
                                                    : "CloudQC-BFS";
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
    return detail::place_cloudqc_family(circuit, cloud, rng, ctx, opts_,
                                        select_, sweep_pool());
  }

 private:
  PlacerOptions opts_;
  detail::QpuSelect select_;
};

}  // namespace

std::unique_ptr<Placer> make_cloudqc_placer(PlacerOptions opts) {
  return std::make_unique<CloudQcFamilyPlacer>(std::move(opts),
                                               detail::QpuSelect::kCommunity);
}

std::unique_ptr<Placer> make_cloudqc_bfs_placer(PlacerOptions opts) {
  return std::make_unique<CloudQcFamilyPlacer>(std::move(opts),
                                               detail::QpuSelect::kBfs);
}

}  // namespace cloudqc
