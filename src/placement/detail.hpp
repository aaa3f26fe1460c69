// Shared machinery of the CloudQC placement family: partition-interaction
// graphs, QPU-set selection (community-based and BFS-based), the
// Algorithm 2 partition→QPU mapping heuristic and Algorithm 1 itself.
// Exposed in a header so the CloudQC and CloudQC-BFS placers and the unit
// tests can reuse it.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cloud/cloud.hpp"
#include "graph/csr.hpp"
#include "placement/placement.hpp"

namespace cloudqc {

class ThreadPool;

namespace detail {

/// Contract a qubit interaction graph along `part` labels: node i is
/// partition i (node weight = #qubits), edge (i, j) sums the 2-qubit-gate
/// weight crossing the two partitions. Built straight into CSR, with the
/// neighbour lists Graph::add_edge gives when fed the crossing edges in
/// Graph::edges() order.
WeightedCsr partition_interaction_graph(const WeightedCsr& interaction,
                                        const std::vector<int>& part, int k);

/// Community-detection QPU selection (CloudQC proper): detect communities
/// on the resource-weighted topology `weighted` (an insertion-order CSR of
/// cloud.resource_weighted_topology(), built by the caller so a sweep over
/// one unchanged cloud builds it once), pick the best-fitting community for
/// `needed_qubits`, growing it with the nearest other communities when one
/// community alone is too small or offers fewer than `min_qpus` hosts.
/// Returns QPU ids, or nullopt when the whole cloud cannot fit the request.
std::optional<std::vector<QpuId>> select_qpus_by_community(
    const QuantumCloud& cloud, const WeightedCsr& weighted, int needed_qubits,
    std::uint64_t seed, int min_qpus = 1);

/// BFS QPU selection (CloudQC-BFS baseline): breadth-first expansion from
/// the QPU with the most free computing qubits until capacity suffices and
/// at least `min_qpus` QPUs are selected.
std::optional<std::vector<QpuId>> select_qpus_by_bfs(const QuantumCloud& cloud,
                                                     int needed_qubits,
                                                     int min_qpus = 1);

/// Greedy qubit-level polish: hill-climb the communication cost of a
/// feasible mapping with single-qubit moves and cross-QPU swaps until a
/// full pass finds no improvement (at most 4 passes). Preserves
/// feasibility. Used by the CloudQC family after Algorithm 2's mapping.
/// Candidate moves/swaps are scored through the incremental delta-cost
/// engine over `ctx`'s interaction CSR.
void polish_placement(const Circuit& circuit, const QuantumCloud& cloud,
                      std::vector<QpuId>& qubit_to_qpu, Rng& rng,
                      const PlacementContext& ctx);

/// Candidate-set centres (graph_center_of on the cloud topology) already
/// computed for one cloud, keyed on the candidate vector *in order*:
/// graph_center_of breaks ties by position, so a reordered set may have a
/// different centre. Valid only while the cloud's topology is unchanged;
/// the CloudQC family keeps one per sweep worker.
using CenterMemo = std::map<std::vector<QpuId>, QpuId>;

/// Algorithm 2: map each partition to a distinct QPU from `candidates`.
/// The partition-graph center goes to the candidate-set center; remaining
/// partitions are placed in max-adjacency order, each onto the feasible
/// QPU minimising the distance-weighted cost to already-mapped neighbours.
/// The candidate-set center is looked up in `centers` and added there on
/// a miss. Returns partition→QPU, or nullopt when capacities cannot be
/// satisfied.
std::optional<std::vector<QpuId>> map_partitions(
    const WeightedCsr& part_graph, const QuantumCloud& cloud,
    const std::vector<QpuId>& candidates, CenterMemo& centers);

/// QPU-set selection strategy of the CloudQC family.
enum class QpuSelect { kCommunity, kBfs };

/// Algorithm 1, the body of the CloudQC (`kCommunity`) and CloudQC-BFS
/// (`kBfs`) placers: the single-QPU fast path, then the imbalance × k
/// candidate sweep, the polish pass on the winner and the warm-start
/// candidate. Every candidate's seeds are drawn from `rng` up front, in
/// sweep order, so the candidates are independent. With a non-null `pool`
/// they run on the caller and up to pool->size() - 1 of its workers;
/// without one, or on a pool worker, serially. The best is chosen in sweep
/// order. The result and the state `rng` is left in are the same for any
/// pool, or none.
std::optional<Placement> place_cloudqc_family(const Circuit& circuit,
                                              const QuantumCloud& cloud,
                                              Rng& rng,
                                              const PlacementContext& ctx,
                                              const PlacerOptions& opts,
                                              QpuSelect select,
                                              ThreadPool* pool);

}  // namespace detail
}  // namespace cloudqc
