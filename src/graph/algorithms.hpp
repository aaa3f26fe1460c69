// Classic graph algorithms used throughout placement: BFS orders and
// distances, all-pairs hop distances, connected
// components, and graph centers (Algorithm 2 of the paper maps the center of
// the partition-interaction graph onto the center of the detected QPU
// community).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

/// Unweighted hop distances from `src`; unreachable nodes get -1.
std::vector<int> bfs_distances(const Graph& g, NodeId src);

/// Nodes in BFS visitation order starting at `src` (only reachable ones).
std::vector<NodeId> bfs_order(const Graph& g, NodeId src);

/// All-pairs unweighted hop distance matrix (row-major n*n), -1 when
/// unreachable. O(n * (n + m)); fine for cloud-sized graphs (tens of QPUs).
class HopDistanceMatrix {
 public:
  explicit HopDistanceMatrix(const Graph& g);

  int operator()(NodeId u, NodeId v) const {
    return dist_[static_cast<std::size_t>(u) * n_ +
                 static_cast<std::size_t>(v)];
  }
  NodeId num_nodes() const { return static_cast<NodeId>(n_); }

 private:
  std::size_t n_;
  std::vector<int> dist_;
};

/// Connected-component label per node (labels are 0..k-1, ordered by first
/// appearance).
std::vector<int> connected_components(const Graph& g);

/// Eccentricity-minimising node ("graph center"). For disconnected graphs
/// the center of the largest component is returned. Ties broken by highest
/// weighted degree, then lowest id. Returns kInvalidNode for empty graphs.
/// Equal to graph_center_of(g, all ids in order).
NodeId graph_center(const Graph& g);

/// graph_center of the Graph an insertion-order CSR was taken from, run on
/// the CSR itself: no induced-subgraph copy, one queue and one distance
/// buffer for every BFS.
NodeId graph_center(const WeightedCsr& g);

/// Restrict `center` search to `subset` (distances measured inside the
/// induced subgraph). Returns kInvalidNode if subset is empty. Order
/// matters: among equally large components of the induced subgraph the one
/// whose first member comes earliest in `subset` is searched, and ties in
/// eccentricity and weighted degree go to the node earliest in `subset`,
/// not the lowest id. Callers that memoise results must key on the ordered
/// vector.
NodeId graph_center_of(const Graph& g, const std::vector<NodeId>& subset);

/// Induced subgraph on `subset`; out_map[i] is the original id of new node i.
Graph induced_subgraph(const Graph& g, const std::vector<NodeId>& subset,
                       std::vector<NodeId>* out_map = nullptr);

}  // namespace cloudqc
