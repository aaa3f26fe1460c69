// Qubit-level local search that polishes the CloudQC family's partition-
// level mapping: single-qubit moves and cross-QPU swaps, accepted only when
// they reduce the distance-weighted communication cost. Partition-level
// mapping gets the global structure right; this pass cleans up the boundary
// qubits that graph partitioning placed one QPU off.
//
// Scoring is incremental: a qubit's neighbour weights are aggregated per
// hosting QPU once (O(degree)), after which each of the P candidate targets
// costs O(distinct peer QPUs) instead of O(degree) — and no full gate-list
// walk happens anywhere in the loop.
#include <numeric>

#include "common/check.hpp"
#include "placement/cost.hpp"
#include "placement/detail.hpp"
#include "placement/incremental_cost.hpp"

namespace cloudqc::detail {

void polish_placement(const Circuit& circuit, const QuantumCloud& cloud,
                      std::vector<QpuId>& qubit_to_qpu, Rng& rng,
                      const PlacementContext& ctx) {
  // Passes are capped; most placements stop improving well before that.
  constexpr int kMaxPasses = 4;
  const int n = circuit.num_qubits();
  if (n == 0) return;
  IncrementalCostModel model(ctx.csr, cloud);
  model.reset(qubit_to_qpu);

  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool improved = false;
    rng.shuffle(order);

    // Single-qubit moves into any QPU with a free computing slot.
    for (const NodeId q : order) {
      const QpuId from = model.qpu_of(q);
      const auto& peers = model.neighbor_qpu_weights(q);
      double before = 0.0;
      for (const auto& [peer_qpu, w] : peers) {
        before += w * cloud.distance(from, peer_qpu);
      }
      double best_delta = -1e-9;
      QpuId best_to = kInvalidNode;
      for (QpuId to = 0; to < cloud.num_qpus(); ++to) {
        if (to == from) continue;
        if (!model.move_fits(to)) continue;
        double after = 0.0;
        for (const auto& [peer_qpu, w] : peers) {
          after += w * cloud.distance(to, peer_qpu);
        }
        const double delta = after - before;
        if (delta < best_delta) {
          best_delta = delta;
          best_to = to;
        }
      }
      if (best_to != kInvalidNode) {
        model.apply_move(q, best_to, best_delta);
        improved = true;
      }
    }

    // Cross-QPU swaps (capacity-neutral) — essential when every QPU is
    // full and moves alone cannot rebalance.
    for (NodeId q1 = 0; q1 < n; ++q1) {
      for (NodeId q2 = q1 + 1; q2 < n; ++q2) {
        if (model.qpu_of(q1) == model.qpu_of(q2)) continue;
        const double delta = model.swap_delta(q1, q2);
        if (delta < -1e-9) {
          model.apply_swap(q1, q2, delta);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  qubit_to_qpu = model.mapping();
  CLOUDQC_DCHECK(placement_fits(cloud, qubit_to_qpu));
}

}  // namespace cloudqc::detail
