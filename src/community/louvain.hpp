// Modularity-based community detection (the paper cites Newman 2006; we use
// the Louvain method, the standard greedy modularity optimiser). CloudQC
// runs this on the QPU topology graph — with free computing qubits embedded
// into edge weights — to find tightly-connected, resource-rich QPU subsets
// to host a circuit's partitions.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

struct CommunityResult {
  /// community[v] ∈ [0, num_communities) for every node v.
  std::vector<int> community;
  int num_communities = 0;
  /// Modularity Q of the returned division.
  double modularity = 0.0;
};

struct LouvainOptions {
  /// Stop when a full local-move sweep improves Q by less than this.
  double min_gain = 1e-7;
  /// Cap on the number of aggregate/local-move rounds.
  int max_levels = 16;
  std::uint64_t seed = 1;
};

/// Newman modularity of `community` over `g`:
///   Q = Σ_c [ in_c / (2m) − (tot_c / (2m))² ]
/// where in_c counts intra-community edge weight (both directions) and
/// tot_c the weighted degree sum. Returns 0 for edgeless graphs.
double modularity(const Graph& g, const std::vector<int>& community);
double modularity(const WeightedCsr& g, const std::vector<int>& community);

/// Louvain: repeated local moving + graph aggregation. Deterministic for a
/// fixed seed. Isolated nodes become singleton communities.
CommunityResult detect_communities(const Graph& g,
                                   const LouvainOptions& opt = {});

/// The same division of an insertion-order CSR of `g`, using the CSR as
/// level 0 rather than building one. Callers that run Louvain on one
/// graph many times build the CSR once.
CommunityResult detect_communities(const WeightedCsr& g,
                                   const LouvainOptions& opt = {});

/// Convenience: the members of each community, indexed by community id.
std::vector<std::vector<NodeId>> community_members(
    const CommunityResult& result);

}  // namespace cloudqc
