// Frontier router: batched masked-shortest-path routing (ROADMAP item 2,
// the PaperWasp hybrid_bfs shape). Computes the exact same policy as
// routing.hpp's make_masked_shortest_router() — hop-shortest path avoiding
// saturated intermediates, lowest-index-neighbour tie-break — but instead
// of a fresh per-op BFS it runs one full sweep per (source, congestion
// state) and serves every pending op against cached shortest-path trees:
//
//   * flat CSR adjacency snapshot (graph/csr.hpp's SortedCsr) with
//     ascending neighbour ids, rebuilt only when the cloud topology
//     changes;
//   * a saturation bitmap recomputed from `free_comm` when it differs from
//     the previous call's (one vector compare otherwise, no allocation
//     either way), so route() stays a pure function of its arguments no
//     matter what the cache holds;
//   * sweep scratch (frontier and next-level vectors) kept allocated
//     across sweeps; every level is expanded top-down. PaperWasp's
//     bottom-up direction switch pays on very large graphs, but on the
//     127-QPU fat-tree it chose under 2% of levels and the sweep ran no
//     faster with it;
//   * incremental invalidation: each tree remembers the saturation bitmap
//     it swept under and the region it touched; it is reused verbatim
//     while the *current* saturation state agrees with that snapshot over
//     the touched region (change-gated like the simulator's alloc_dirty_)
//     — congestion flapping elsewhere, or flapping that returns to the
//     swept state, costs nothing.
//
// One sweep from source s serves every destination at once: saturated
// nodes are claimable (they get a distance and parent, which is what the
// endpoint exemption for destinations needs) but never expandable (they
// never enter the frontier, so no path transits them). The parent chain
// of any claimed node therefore consists solely of expandable nodes, and
// reconstructing it yields exactly the per-op router's path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "schedule/routing.hpp"

namespace cloudqc {

class FrontierRouter final : public EprRouter {
 public:
  FrontierRouter() = default;

  std::string name() const override { return "frontier"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override;

  /// Sweep/reuse counters, for benches and the invalidation tests.
  struct Stats {
    std::uint64_t route_calls = 0;
    std::uint64_t tree_hits = 0;    // query served from a cached tree
    std::uint64_t sweeps = 0;       // full BFS sweeps run
    std::uint64_t mask_changes = 0;  // saturation bitmap differed from last
    std::uint64_t csr_rebuilds = 0;  // topology snapshot rebuilt
  };
  Stats stats() const;

 private:
  /// A cached shortest-path tree from one source, plus the evidence needed
  /// to decide whether it is still exact under the current congestion.
  struct Tree {
    bool valid = false;
    std::vector<std::int32_t> dist;  // -1 = unreached under the mask
    std::vector<NodeId> parent;      // kInvalidNode at the source/unreached
    NodeBitmap touched;  // claimed nodes: only their mask bits matter
    NodeBitmap mask;     // saturation bitmap the sweep ran under
  };

  void bind_topology_locked(const Graph& topo) const;
  void refresh_mask_locked(const std::vector<int>& free_comm) const;
  void sweep_locked(QpuId src) const;

  mutable std::mutex mu_;
  // Topology snapshot identity: pointer + sizes. The simulator keeps one
  // QuantumCloud alive per run, so a pointer change (or an edge-count
  // change under maintenance-style mutation) is the rebuild trigger.
  mutable const Graph* topo_ = nullptr;
  mutable NodeId topo_nodes_ = 0;
  mutable std::size_t topo_edges_ = 0;
  mutable SortedCsr csr_;
  mutable NodeBitmap mask_;  // bit v set = saturated (free_comm[v] <= 0)
  // The free_comm vector mask_ was computed from (empty after a rebind),
  // and the buffer the next mask is built in.
  mutable std::vector<int> last_free_comm_;
  mutable NodeBitmap fresh_mask_;
  mutable std::vector<Tree> trees_;  // indexed by source QPU
  // Sweep scratch (guarded by mu_ like everything else).
  mutable std::vector<NodeId> frontier_;
  mutable std::vector<NodeId> next_;
  mutable Stats stats_;
};

std::unique_ptr<EprRouter> make_frontier_router();

}  // namespace cloudqc
