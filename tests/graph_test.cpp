#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace cloudqc {
namespace {

Graph path_graph(NodeId n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 0.0);
}

TEST(Graph, AddEdgeAccumulatesWeight) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 3.0);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 5.0);
}

TEST(Graph, NeighborsSymmetric) {
  Graph g(4);
  g.add_edge(1, 3, 2.5);
  ASSERT_EQ(g.neighbors(1).size(), 1u);
  ASSERT_EQ(g.neighbors(3).size(), 1u);
  EXPECT_EQ(g.neighbors(1)[0].to, 3);
  EXPECT_EQ(g.neighbors(3)[0].to, 1);
}

TEST(Graph, SelfLoopCountsTwiceInDegree) {
  Graph g(2);
  g.add_edge(0, 0, 1.5);
  g.add_edge(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 2.0 * 1.5 + 1.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 1.0);
}

TEST(Graph, NodeWeights) {
  Graph g(2);
  EXPECT_DOUBLE_EQ(g.node_weight(0), 1.0);  // default
  g.set_node_weight(0, 4.0);
  EXPECT_DOUBLE_EQ(g.node_weight(0), 4.0);
  EXPECT_DOUBLE_EQ(g.total_node_weight(), 5.0);
}

TEST(Graph, AddNodeGrows) {
  Graph g(1);
  const NodeId v = g.add_node(2.0);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(g.node_weight(v), 2.0);
}

TEST(Graph, FlatEdgesEachOnce) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 2, 3.0);  // self-loop
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  double total = 0.0;
  for (const auto& e : edges) {
    EXPECT_LE(e.u, e.v);
    total += e.weight;
  }
  EXPECT_DOUBLE_EQ(total, 6.0);
}

TEST(Graph, OutOfRangeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::logic_error);
  EXPECT_THROW(g.edge_weight(-1, 0), std::logic_error);
  EXPECT_THROW(g.node_weight(5), std::logic_error);
}

TEST(BfsDistances, PathGraph) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
}

TEST(BfsDistances, UnreachableIsMinusOne) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], -1);
}

TEST(BfsOrder, VisitsReachableExactlyOnce) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  const auto order = bfs_order(g, 0);
  EXPECT_EQ(order.size(), 4u);  // node 4 unreachable
  EXPECT_EQ(order.front(), 0);
}

TEST(Dijkstra, RespectsWeights) {
  Graph g(4);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 1, 1.0);
  const auto d = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);  // via 2 and 3
  EXPECT_DOUBLE_EQ(d[3], 2.0);
}

TEST(Dijkstra, UnreachableIsInfinity) {
  Graph g(2);
  const auto d = dijkstra(g, 0);
  EXPECT_TRUE(std::isinf(d[1]));
}

TEST(HopDistanceMatrix, MatchesBfs) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  const HopDistanceMatrix m(g);
  for (NodeId u = 0; u < 6; ++u) {
    const auto d = bfs_distances(g, u);
    for (NodeId v = 0; v < 6; ++v) {
      EXPECT_EQ(m(u, v), d[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(ConnectedComponents, LabelsComponents) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto c = connected_components(g);
  EXPECT_EQ(c[0], c[1]);
  EXPECT_EQ(c[2], c[3]);
  EXPECT_NE(c[0], c[2]);
  EXPECT_NE(c[4], c[0]);
  EXPECT_NE(c[4], c[2]);
}

TEST(GraphCenter, PathGraphCenterIsMiddle) {
  const Graph g = path_graph(7);
  EXPECT_EQ(graph_center(g), 3);
}

TEST(GraphCenter, StarCenterIsHub) {
  Graph g(6);
  for (NodeId i = 1; i < 6; ++i) g.add_edge(0, i);
  EXPECT_EQ(graph_center(g), 0);
}

TEST(GraphCenter, EmptyGraphReturnsInvalid) {
  Graph g;
  EXPECT_EQ(graph_center(g), kInvalidNode);
}

TEST(GraphCenter, DegreeTieBreakSumsInInducedSubgraphOrder) {
  // Hubs 3 and 4 both have eccentricity 1, so the weighted degree decides.
  // Hub 3's edges are inserted in descending id order: summed that way its
  // degree rounds to 0.9999999999999999 and hub 4 (exactly 1.0) would win;
  // summed in graph_center_of's induced-subgraph order (ascending ids) it
  // is exactly 1.0, and the tie goes to the lower id.
  Graph g(5);
  g.add_edge(3, 4, 0.4);
  g.add_edge(3, 2, 0.3);
  g.add_edge(3, 1, 0.2);
  g.add_edge(3, 0, 0.1);
  g.add_edge(4, 0, 0.25);
  g.add_edge(4, 1, 0.25);
  g.add_edge(4, 2, 0.1);
  ASSERT_EQ(graph_center_of(g, {0, 1, 2, 3, 4}), 3);
  EXPECT_EQ(graph_center(g), 3);
}

TEST(GraphCenter, MatchesGraphCenterOfAllIds) {
  // Rings with random chords: many nodes share the minimum eccentricity,
  // and fractional weights inserted in random order make the weighted-
  // degree tie-break depend on summation order.
  constexpr double kWeights[] = {0.1, 0.2, 0.3, 0.7, 1.0};
  Rng rng(17);
  for (int iter = 0; iter < 300; ++iter) {
    const auto n = static_cast<NodeId>(1 + rng.below(16));
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId i = 0; i + 1 < n; ++i) pairs.emplace_back(i, i + 1);
    if (n > 2) pairs.emplace_back(n - 1, 0);
    const auto span = static_cast<std::uint64_t>(n);
    const auto chords = rng.below(span);
    for (std::uint64_t c = 0; c < chords; ++c) {
      const auto u = static_cast<NodeId>(rng.below(span));
      pairs.emplace_back(u, static_cast<NodeId>(rng.below(span)));
    }
    rng.shuffle(pairs);
    Graph g(n);
    for (const auto& [u, v] : pairs) {
      if (rng.chance(0.5)) {
        g.add_edge(u, v, kWeights[rng.below(5)]);
      } else {
        g.add_edge(v, u, kWeights[rng.below(5)]);
      }
    }
    std::vector<NodeId> all(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
    ASSERT_EQ(graph_center(g), graph_center_of(g, all)) << "iter " << iter;
  }
}

TEST(GraphCenterOf, SubsetRestricts) {
  const Graph g = path_graph(9);
  // Center of nodes {0..4} inside the path is 2.
  EXPECT_EQ(graph_center_of(g, {0, 1, 2, 3, 4}), 2);
  EXPECT_EQ(graph_center_of(g, {6}), 6);
  EXPECT_EQ(graph_center_of(g, {}), kInvalidNode);
}

TEST(GraphCenterOf, DisconnectedSubsetUsesLargestComponent) {
  const Graph g = path_graph(10);
  // Subset = {0,1,2} ∪ {8}: largest induced component is {0,1,2}.
  const NodeId c = graph_center_of(g, {0, 1, 2, 8});
  EXPECT_EQ(c, 1);
}

TEST(GraphCenterOf, TiesGoToEarliestPositionInSubset) {
  // Every node of a 4-cycle has eccentricity 2 and degree 2, so only the
  // tie-break decides: the first-listed node wins, whatever its id.
  Graph ring(4);
  for (NodeId i = 0; i < 4; ++i) ring.add_edge(i, (i + 1) % 4);
  EXPECT_EQ(graph_center_of(ring, {0, 1, 2, 3}), 0);
  EXPECT_EQ(graph_center_of(ring, {2, 3, 0, 1}), 2);
  EXPECT_EQ(graph_center_of(ring, {3, 1, 0, 2}), 3);
}

TEST(GraphCenterOf, EqualComponentsPickTheOneListedFirst) {
  const Graph g = path_graph(10);
  // {0,1} and {7,8} induce two components of the same size.
  EXPECT_EQ(graph_center_of(g, {0, 1, 7, 8}), 0);
  EXPECT_EQ(graph_center_of(g, {8, 7, 1, 0}), 8);
}

TEST(InducedSubgraph, KeepsWeightsAndEdges) {
  Graph g(4);
  g.set_node_weight(1, 5.0);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 4.0);
  std::vector<NodeId> map;
  const Graph sub = induced_subgraph(g, {1, 2}, &map);
  EXPECT_EQ(sub.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(sub.edge_weight(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(sub.node_weight(0), 5.0);
  EXPECT_EQ(map, (std::vector<NodeId>{1, 2}));
}

TEST(InducedSubgraph, DuplicateNodeThrows) {
  Graph g(3);
  EXPECT_THROW(induced_subgraph(g, {0, 0}), std::logic_error);
}

}  // namespace
}  // namespace cloudqc
