#include "schedule/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "common/check.hpp"

namespace cloudqc {
namespace {

/// Hop-shortest path with deterministic (lowest-id) tie-breaking via BFS
/// parent tracking. `blocked` nodes (no free comm qubits) may be skipped.
std::optional<EprPath> bfs_path(const Graph& topo, QpuId src, QpuId dst,
                                const std::vector<char>* blocked) {
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<char> seen(n, 0);
  std::queue<NodeId> q;
  seen[static_cast<std::size_t>(src)] = 1;
  q.push(src);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    if (u == dst) break;
    // Visit neighbours in ascending id for determinism.
    std::vector<NodeId> nbrs;
    for (const auto& e : topo.neighbors(u)) nbrs.push_back(e.to);
    std::sort(nbrs.begin(), nbrs.end());
    for (const NodeId v : nbrs) {
      if (seen[static_cast<std::size_t>(v)]) continue;
      // Intermediate nodes may be blocked; the destination never is (its
      // qubits are accounted by the endpoint allocation).
      if (blocked != nullptr && v != dst &&
          (*blocked)[static_cast<std::size_t>(v)]) {
        continue;
      }
      seen[static_cast<std::size_t>(v)] = 1;
      parent[static_cast<std::size_t>(v)] = u;
      q.push(v);
    }
  }
  if (!seen[static_cast<std::size_t>(dst)]) return std::nullopt;
  EprPath path;
  for (NodeId at = dst; at != kInvalidNode;
       at = parent[static_cast<std::size_t>(at)]) {
    path.nodes.push_back(at);
    if (at == src) break;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  if (path.nodes.front() != src) return std::nullopt;
  return path;
}

class ShortestPathRouter final : public EprRouter {
 public:
  std::string name() const override { return "shortest-path"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override {
    CLOUDQC_CHECK(src != dst);
    (void)free_comm;
    return bfs_path(cloud.topology(), src, dst, nullptr);
  }
};

class CongestionAwareRouter final : public EprRouter {
 public:
  std::string name() const override { return "congestion-aware"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override {
    CLOUDQC_CHECK(src != dst);
    const Graph& topo = cloud.topology();
    CLOUDQC_CHECK(free_comm.size() ==
                  static_cast<std::size_t>(topo.num_nodes()));

    // Saturated intermediates are unusable (no qubit left to swap with);
    // find the shortest path avoiding them.
    std::vector<char> blocked(static_cast<std::size_t>(topo.num_nodes()), 0);
    for (NodeId v = 0; v < topo.num_nodes(); ++v) {
      if (v != src && v != dst &&
          free_comm[static_cast<std::size_t>(v)] <= 0) {
        blocked[static_cast<std::size_t>(v)] = 1;
      }
    }
    const auto direct = bfs_path(topo, src, dst, nullptr);
    if (!direct.has_value()) return std::nullopt;  // disconnected
    const auto unblocked = bfs_path(topo, src, dst, &blocked);
    if (!unblocked.has_value() ||
        unblocked->hops() > direct->hops() + kMaxExtraHops) {
      // Every viable detour is too long: queue on the plain shortest path
      // (EPR success decays as p^hops, so a long detour costs more than
      // waiting for the hot QPU to free up).
      return direct;
    }

    // Among paths of the unblocked-minimal length, pick the one with the
    // least-loaded intermediates (sum of 1/(free+1)).
    const auto candidates = k_shortest_paths(topo, src, dst, 5);
    const EprPath* best = &*unblocked;
    double best_load = load_of(*unblocked, free_comm);
    for (const auto& p : candidates) {
      if (p.hops() != unblocked->hops()) continue;
      bool viable = true;
      for (std::size_t j = 1; j + 1 < p.nodes.size(); ++j) {
        if (blocked[static_cast<std::size_t>(p.nodes[j])]) viable = false;
      }
      if (!viable) continue;
      const double load = load_of(p, free_comm);
      if (load < best_load - 1e-12) {
        best_load = load;
        best = &p;
      }
    }
    return *best;
  }

 private:
  static double load_of(const EprPath& p, const std::vector<int>& free_comm) {
    double load = 0.0;
    for (std::size_t j = 1; j + 1 < p.nodes.size(); ++j) {
      load += 1.0 / (free_comm[static_cast<std::size_t>(p.nodes[j])] + 1.0);
    }
    return load;
  }

  // Longest detour taken, in hops beyond the minimum.
  static constexpr int kMaxExtraHops = 2;
};

// The canonical masked-shortest-path policy, computed fresh per call with
// a level-synchronous BFS. Deliberately the *simple* implementation: no
// CSR, no bitmaps, no caching — a dozen lines whose correctness is easy to
// audit, so the differential tests can hold the batched FrontierRouter to
// it result-for-result. The tie-break contract both must satisfy:
//
//   * levels are processed synchronously; within a level the frontier is
//     iterated in ascending node id, and each node expands its neighbours
//     in ascending id — so every claimed node's parent is its
//     lowest-indexed neighbour in the previous level;
//   * a saturated node (free_comm <= 0, other than src) is *claimable*
//     (it can terminate a path: destinations are endpoint-exempt) but
//     never *expandable* (it never enters the frontier, so no path
//     transits it).
class MaskedShortestRouter final : public EprRouter {
 public:
  std::string name() const override { return "masked-shortest"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override {
    CLOUDQC_CHECK(src != dst);
    const Graph& topo = cloud.topology();
    const auto n = static_cast<std::size_t>(topo.num_nodes());
    CLOUDQC_CHECK(free_comm.size() == n);

    std::vector<NodeId> parent(n, kInvalidNode);
    std::vector<char> claimed(n, 0);
    std::vector<NodeId> frontier{src};
    std::vector<NodeId> next;
    claimed[static_cast<std::size_t>(src)] = 1;
    while (!frontier.empty() && !claimed[static_cast<std::size_t>(dst)]) {
      next.clear();
      for (const NodeId u : frontier) {
        std::vector<NodeId> nbrs;
        for (const auto& e : topo.neighbors(u)) nbrs.push_back(e.to);
        std::sort(nbrs.begin(), nbrs.end());
        for (const NodeId v : nbrs) {
          if (claimed[static_cast<std::size_t>(v)]) continue;
          claimed[static_cast<std::size_t>(v)] = 1;
          parent[static_cast<std::size_t>(v)] = u;
          if (free_comm[static_cast<std::size_t>(v)] > 0) next.push_back(v);
        }
      }
      // Claims above arrive in (frontier-rank, neighbour-id) order, which
      // is not globally ascending past level 1 — restore the invariant.
      std::sort(next.begin(), next.end());
      frontier.swap(next);
    }
    if (!claimed[static_cast<std::size_t>(dst)]) return std::nullopt;
    EprPath path;
    for (NodeId at = dst; at != kInvalidNode;
         at = parent[static_cast<std::size_t>(at)]) {
      path.nodes.push_back(at);
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    CLOUDQC_DCHECK(path.nodes.front() == src);
    return path;
  }
};

}  // namespace

std::unique_ptr<EprRouter> make_shortest_path_router() {
  return std::make_unique<ShortestPathRouter>();
}

std::unique_ptr<EprRouter> make_congestion_aware_router() {
  return std::make_unique<CongestionAwareRouter>();
}

std::unique_ptr<EprRouter> make_masked_shortest_router() {
  return std::make_unique<MaskedShortestRouter>();
}

std::vector<EprPath> k_shortest_paths(const Graph& topology, QpuId src,
                                      QpuId dst, int k) {
  CLOUDQC_CHECK(k >= 1);
  CLOUDQC_CHECK(src != dst);
  std::vector<EprPath> result;
  const auto first = bfs_path(topology, src, dst, nullptr);
  if (!first.has_value()) return result;
  result.push_back(*first);

  // Yen's algorithm over unit edge weights, with node-removal encoded via
  // the `blocked` mask of bfs_path.
  std::vector<EprPath> candidates;
  auto path_key = [](const EprPath& p) { return p.nodes; };
  std::set<std::vector<QpuId>> seen{path_key(*first)};

  while (static_cast<int>(result.size()) < k) {
    const EprPath& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const QpuId spur = prev.nodes[i];
      // Block the nodes of the root prefix (except the spur itself) and
      // the next hop every known path takes from this prefix.
      std::vector<char> blocked(
          static_cast<std::size_t>(topology.num_nodes()), 0);
      for (std::size_t j = 0; j < i; ++j) {
        blocked[static_cast<std::size_t>(prev.nodes[j])] = 1;
      }
      for (const auto& known : result) {
        if (known.nodes.size() > i &&
            std::equal(known.nodes.begin(),
                       known.nodes.begin() + static_cast<std::ptrdiff_t>(i) +
                           1,
                       prev.nodes.begin()) &&
            known.nodes.size() > i + 1) {
          blocked[static_cast<std::size_t>(known.nodes[i + 1])] = 1;
        }
      }
      if (blocked[static_cast<std::size_t>(dst)]) continue;
      const auto spur_path = bfs_path(topology, spur, dst, &blocked);
      if (!spur_path.has_value()) continue;
      EprPath total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() + static_cast<std::ptrdiff_t>(i));
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin(),
                         spur_path->nodes.end());
      // Loop-free check: Yen with node-blocking guarantees it, but guard
      // against prefix/spur overlap regardless.
      std::set<QpuId> uniq(total.nodes.begin(), total.nodes.end());
      if (uniq.size() != total.nodes.size()) continue;
      if (seen.insert(path_key(total)).second) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    const auto best = std::min_element(
        candidates.begin(), candidates.end(),
        [](const EprPath& a, const EprPath& b) {
          if (a.nodes.size() != b.nodes.size()) {
            return a.nodes.size() < b.nodes.size();
          }
          return a.nodes < b.nodes;
        });
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

}  // namespace cloudqc
