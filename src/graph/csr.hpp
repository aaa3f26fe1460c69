// Flat compressed-sparse-row snapshots of a Graph.
//
// WeightedCsr is the one CSR under the placer's kernels (multilevel
// partitioning, refinement, Louvain, graph centres, the incremental cost
// model). It keeps Graph insertion order: every node lists its neighbours
// exactly as Graph::neighbors does, which first-max tie-breaks (heavy-edge
// matching, region growing) and floating-point accumulation both observe.
//
// SortedCsr is the frontier router's unweighted snapshot. It *sorts* each
// neighbour list, which is what deterministic lowest-index-first graph
// traversals want: "first neighbour visited" and "lowest-id neighbour"
// coincide by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace cloudqc {

/// Immutable CSR snapshot: offsets, neighbour ids, edge weights and node
/// weights in flat arrays, plus the graph's total edge weight. Parallel
/// edges are collapsed and a self-loop is listed once, as in Graph. Safe
/// to share across threads.
class WeightedCsr {
 public:
  WeightedCsr() = default;
  explicit WeightedCsr(const Graph& g);

  /// The CSR that Graph::add_edge builds when fed `edges` in order onto
  /// nodes 0..node_weights.size()-1: a repeated pair accumulates its
  /// weights in stream order, each node lists its neighbours in the order
  /// their pairs first appear, and a self-loop (u == v) is listed once.
  /// O(nodes + edges), with no per-edge duplicate scan.
  WeightedCsr(std::vector<double> node_weights,
              const std::vector<Graph::FlatEdge>& edges);

  NodeId num_nodes() const { return static_cast<NodeId>(node_weight_.size()); }
  std::size_t num_entries() const { return to_.size(); }

  std::size_t begin(NodeId u) const {
    return offset_[static_cast<std::size_t>(u)];
  }
  std::size_t end(NodeId u) const {
    return offset_[static_cast<std::size_t>(u) + 1];
  }
  std::size_t degree(NodeId u) const { return end(u) - begin(u); }
  NodeId to(std::size_t i) const { return to_[i]; }
  double weight(std::size_t i) const { return weight_[i]; }

  double node_weight(NodeId u) const {
    return node_weight_[static_cast<std::size_t>(u)];
  }
  /// Σ node weights in id order (bit-identical to Graph::total_node_weight).
  double total_node_weight() const;
  /// Sum of all edge weights, each undirected edge once, accumulated in
  /// the order the edges were added (bit-identical to
  /// Graph::total_edge_weight).
  double total_edge_weight() const { return total_edge_weight_; }
  /// Sum of u's incident edge weights, a self-loop counted twice, in
  /// neighbour order (bit-identical to Graph::weighted_degree).
  double weighted_degree(NodeId u) const;

 private:
  std::vector<std::size_t> offset_;  // num_nodes + 1 entries once built
  std::vector<NodeId> to_;
  std::vector<double> weight_;
  std::vector<double> node_weight_;
  double total_edge_weight_ = 0.0;
};

/// Immutable CSR snapshot of an unweighted view of a Graph: two flat
/// arrays (offsets + neighbour ids), neighbour ids ascending per node,
/// parallel edges collapsed (Graph::add_edge already accumulates weight
/// instead of duplicating entries). Safe to share across threads.
class SortedCsr {
 public:
  SortedCsr() = default;
  explicit SortedCsr(const Graph& g);

  NodeId num_nodes() const {
    return offset_.empty() ? 0 : static_cast<NodeId>(offset_.size() - 1);
  }
  std::size_t num_entries() const { return to_.size(); }

  std::size_t begin(NodeId u) const {
    return offset_[static_cast<std::size_t>(u)];
  }
  std::size_t end(NodeId u) const {
    return offset_[static_cast<std::size_t>(u) + 1];
  }
  std::size_t degree(NodeId u) const { return end(u) - begin(u); }
  NodeId to(std::size_t i) const { return to_[i]; }

 private:
  std::vector<std::size_t> offset_;  // size num_nodes + 1 (empty graph: {})
  std::vector<NodeId> to_;
};

/// Fixed-size bitmap over node ids — frontier/saturation tracking for
/// traversals (the PaperWasp hybrid-BFS idiom). Word-granular accessors
/// keep whole-set comparisons and intersection tests O(n/64).
class NodeBitmap {
 public:
  NodeBitmap() = default;
  explicit NodeBitmap(NodeId n)
      : num_nodes_(n),
        words_(static_cast<std::size_t>((n + 63) / 64), 0ull) {}

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_words() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }

  bool test(NodeId v) const {
    return (words_[static_cast<std::size_t>(v) >> 6] >>
            (static_cast<std::size_t>(v) & 63)) &
           1ull;
  }
  void set(NodeId v) {
    words_[static_cast<std::size_t>(v) >> 6] |=
        1ull << (static_cast<std::size_t>(v) & 63);
  }
  void clear_all() {
    for (auto& w : words_) w = 0;
  }
  /// Number of set bits.
  int count() const;

  /// True when this and `other` agree on every bit of `mask`'s set bits
  /// (all three must be same-sized). The frontier router's tree-validity
  /// test: saturation unchanged over the tree's touched region.
  bool equals_under_mask(const NodeBitmap& other,
                         const NodeBitmap& mask) const;

  bool operator==(const NodeBitmap& o) const { return words_ == o.words_; }
  bool operator!=(const NodeBitmap& o) const { return !(*this == o); }

 private:
  NodeId num_nodes_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cloudqc
