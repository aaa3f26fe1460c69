// Multilevel k-way graph partitioning — the repository's METIS/PyMetis
// substitute. CloudQC partitions each circuit's qubit-interaction graph into
// k parts while sweeping the imbalance factor (Algorithm 1 of the paper).
//
// Pipeline (classic Karypis–Kumar shape):
//   1. coarsen by heavy-edge matching until the graph is small,
//   2. initial k-way partition by greedy region growing,
//   3. uncoarsen, applying greedy boundary (FM-style) refinement per level.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

struct PartitionOptions {
  /// Number of parts k (>= 1).
  int num_parts = 2;
  /// Imbalance factor ε: every part's node weight must stay below
  /// (1 + ε) · total_weight / k. The paper sweeps this knob.
  double imbalance = 0.1;
  /// Seed for tie-breaking / seed-node choice; same seed → same partition.
  std::uint64_t seed = 1;
};

struct PartitionResult {
  /// part[v] ∈ [0, num_parts) for every node v.
  std::vector<int> part;
  /// Total weight of edges crossing parts.
  double edge_cut = 0.0;
  /// Node-weight sum per part.
  std::vector<double> part_weights;
  int num_parts = 0;
};

/// Partition `g` into opt.num_parts parts. Works for any graph (including
/// disconnected interaction graphs — e.g. BV circuits). Never produces an
/// empty part when num_parts <= num_nodes.
PartitionResult partition_graph(const Graph& g, const PartitionOptions& opt);

/// The same partition of an insertion-order CSR of `g`, using the CSR as
/// the finest level rather than building one. Callers that partition one
/// graph many times build the CSR once.
PartitionResult partition_graph(const WeightedCsr& g,
                                const PartitionOptions& opt);

/// Weight of edges of `g` crossing between different values of `part`.
double edge_cut(const Graph& g, const std::vector<int>& part);
double edge_cut(const WeightedCsr& g, const std::vector<int>& part);

/// Node-weight sums per part (size = max label + 1, at least min_parts).
std::vector<double> part_weights(const Graph& g, const std::vector<int>& part,
                                 int min_parts = 0);
std::vector<double> part_weights(const WeightedCsr& g,
                                 const std::vector<int>& part,
                                 int min_parts = 0);

}  // namespace cloudqc
