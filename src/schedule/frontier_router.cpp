#include "schedule/frontier_router.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace cloudqc {

void FrontierRouter::bind_topology_locked(const Graph& topo) const {
  if (topo_ == &topo && topo_nodes_ == topo.num_nodes() &&
      topo_edges_ == topo.num_edges()) {
    return;
  }
  topo_ = &topo;
  topo_nodes_ = topo.num_nodes();
  topo_edges_ = topo.num_edges();
  csr_ = SortedCsr(topo);
  mask_ = NodeBitmap(topo_nodes_);
  fresh_mask_ = NodeBitmap(topo_nodes_);
  last_free_comm_.clear();
  Tree blank;
  blank.touched = NodeBitmap(topo_nodes_);
  trees_.assign(static_cast<std::size_t>(topo_nodes_), blank);
  ++stats_.csr_rebuilds;
}

void FrontierRouter::refresh_mask_locked(
    const std::vector<int>& free_comm) const {
  // Within one allocation round free_comm changes only when an op starts,
  // so most calls repeat the previous call's vector: one compare, no scan.
  if (free_comm == last_free_comm_) return;
  last_free_comm_ = free_comm;
  fresh_mask_.clear_all();
  for (NodeId v = 0; v < topo_nodes_; ++v) {
    if (free_comm[static_cast<std::size_t>(v)] <= 0) fresh_mask_.set(v);
  }
  if (fresh_mask_ != mask_) {
    ++stats_.mask_changes;
    std::swap(mask_, fresh_mask_);
  }
}

// Level-synchronous BFS from `src` under the current saturation bitmap.
//
// Each level iterates the frontier in ascending id and each member's CSR
// neighbours in ascending id, so an unclaimed v is claimed by the first —
// i.e. lowest-id — frontier member adjacent to it: the per-op reference's
// "lowest-indexed neighbour in the previous level" parent.
void FrontierRouter::sweep_locked(QpuId src) const {
  const NodeId n = topo_nodes_;
  Tree& t = trees_[static_cast<std::size_t>(src)];
  t.dist.assign(static_cast<std::size_t>(n), -1);
  t.parent.assign(static_cast<std::size_t>(n), kInvalidNode);
  t.touched.clear_all();
  t.mask = mask_;
  t.valid = true;

  frontier_.clear();
  frontier_.push_back(src);
  t.dist[static_cast<std::size_t>(src)] = 0;
  t.touched.set(src);
  std::int32_t level = 0;
  ++stats_.sweeps;

  while (!frontier_.empty()) {
    ++level;
    next_.clear();
    for (const NodeId u : frontier_) {
      for (std::size_t i = csr_.begin(u); i < csr_.end(u); ++i) {
        const NodeId v = csr_.to(i);
        if (t.dist[static_cast<std::size_t>(v)] != -1) continue;
        t.dist[static_cast<std::size_t>(v)] = level;
        t.parent[static_cast<std::size_t>(v)] = u;
        t.touched.set(v);
        // Saturated nodes are claimed (a path may *end* there — the
        // destination exemption) but never expanded (no path transits).
        if (!mask_.test(v)) next_.push_back(v);
      }
    }
    // Claims arrive in (frontier-rank, neighbour-id) order, which is not
    // globally ascending past the first level.
    std::sort(next_.begin(), next_.end());
    frontier_.swap(next_);
  }
}

std::optional<EprPath> FrontierRouter::route(
    const QuantumCloud& cloud, QpuId src, QpuId dst,
    const std::vector<int>& free_comm) const {
  CLOUDQC_CHECK(src != dst);
  const Graph& topo = cloud.topology();
  CLOUDQC_CHECK(free_comm.size() ==
                static_cast<std::size_t>(topo.num_nodes()));

  std::lock_guard<std::mutex> lock(mu_);
  bind_topology_locked(topo);
  refresh_mask_locked(free_comm);
  ++stats_.route_calls;

  Tree& t = trees_[static_cast<std::size_t>(src)];
  // A cached tree is exact iff the current saturation state agrees with
  // the tree's snapshot over every node the sweep claimed. Unclaimed
  // nodes cannot matter: they were unreachable (every path to them
  // crossed a saturated node), and flipping an unreachable node's own
  // bit neither connects it nor affects any claimed node's parent chain.
  // The comparison is against the *current* bitmap, so a tree swept under
  // congestion that flapped away and back becomes valid again — no
  // generation counters, no false invalidation.
  if (t.valid && t.mask.equals_under_mask(mask_, t.touched)) {
    ++stats_.tree_hits;
  } else {
    sweep_locked(src);
  }

  if (t.dist[static_cast<std::size_t>(dst)] < 0) return std::nullopt;
  EprPath path;
  for (NodeId at = dst; at != kInvalidNode;
       at = t.parent[static_cast<std::size_t>(at)]) {
    path.nodes.push_back(at);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  CLOUDQC_DCHECK(path.nodes.front() == src);
  return path;
}

FrontierRouter::Stats FrontierRouter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::unique_ptr<EprRouter> make_frontier_router() {
  return std::make_unique<FrontierRouter>();
}

}  // namespace cloudqc
