#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "community/louvain.hpp"
#include "graph/topology.hpp"

namespace cloudqc {
namespace {

/// `k` cliques of size `size`, consecutive cliques joined by one edge.
Graph clique_chain(int k, NodeId size) {
  Graph g(k * size);
  for (int c = 0; c < k; ++c) {
    const NodeId base = c * size;
    for (NodeId u = 0; u < size; ++u) {
      for (NodeId v = u + 1; v < size; ++v) {
        g.add_edge(base + u, base + v, 5.0);
      }
    }
    if (c > 0) g.add_edge(base - 1, base, 0.5);
  }
  return g;
}

TEST(Modularity, SingleCommunityIsZeroIsh) {
  Graph g = clique_chain(1, 5);
  const std::vector<int> all_one(5, 0);
  // Q = in/(2m) - (tot/2m)^2 = 1 - 1 = 0 for everything in one community.
  EXPECT_NEAR(modularity(g, all_one), 0.0, 1e-12);
}

TEST(Modularity, EdgelessGraphIsZero) {
  Graph g(4);
  EXPECT_DOUBLE_EQ(modularity(g, {0, 1, 2, 3}), 0.0);
}

TEST(Modularity, GoodSplitBeatsBadSplit) {
  const Graph g = clique_chain(2, 6);
  std::vector<int> good(12, 0);
  for (int i = 6; i < 12; ++i) good[static_cast<std::size_t>(i)] = 1;
  std::vector<int> bad(12, 0);
  for (int i = 0; i < 12; i += 2) bad[static_cast<std::size_t>(i)] = 1;
  EXPECT_GT(modularity(g, good), modularity(g, bad));
  EXPECT_GT(modularity(g, good), 0.3);
}

TEST(Louvain, RecoversPlantedCliques) {
  const Graph g = clique_chain(4, 6);
  const auto res = detect_communities(g);
  EXPECT_EQ(res.num_communities, 4);
  // Every clique must be monochromatic.
  for (int c = 0; c < 4; ++c) {
    const int label = res.community[static_cast<std::size_t>(c * 6)];
    for (NodeId u = 0; u < 6; ++u) {
      EXPECT_EQ(res.community[static_cast<std::size_t>(c * 6 + u)], label);
    }
  }
  EXPECT_GT(res.modularity, 0.5);
}

TEST(Louvain, ReportedModularityMatchesRecomputation) {
  Rng rng(3);
  const Graph g = random_topology(30, 0.2, rng);
  const auto res = detect_communities(g);
  EXPECT_NEAR(res.modularity, modularity(g, res.community), 1e-9);
}

TEST(Louvain, EmptyAndSingletonGraphs) {
  Graph empty;
  const auto r0 = detect_communities(empty);
  EXPECT_EQ(r0.num_communities, 0);

  Graph one(1);
  const auto r1 = detect_communities(one);
  EXPECT_EQ(r1.num_communities, 1);
  EXPECT_EQ(r1.community[0], 0);
}

TEST(Louvain, IsolatedNodesBecomeSingletons) {
  Graph g(5);
  g.add_edge(0, 1, 3.0);
  const auto res = detect_communities(g);
  EXPECT_EQ(res.community[0], res.community[1]);
  std::set<int> labels(res.community.begin(), res.community.end());
  EXPECT_EQ(static_cast<int>(labels.size()), res.num_communities);
  EXPECT_GE(res.num_communities, 4);  // {0,1} + three isolated singletons
}

TEST(Louvain, DeterministicForSeed) {
  Rng rng(17);
  const Graph g = random_topology(40, 0.15, rng);
  const auto a = detect_communities(g, 7);
  const auto b = detect_communities(g, 7);
  EXPECT_EQ(a.community, b.community);
}

TEST(Louvain, WeightedEdgesDriveCommunities) {
  // Star with one heavy spoke: heavy pair should co-locate.
  Graph g(5);
  g.add_edge(0, 1, 100.0);
  g.add_edge(0, 2, 0.1);
  g.add_edge(0, 3, 0.1);
  g.add_edge(0, 4, 0.1);
  const auto res = detect_communities(g);
  EXPECT_EQ(res.community[0], res.community[1]);
}

TEST(CommunityMembers, PartitionsNodes) {
  const Graph g = clique_chain(3, 4);
  const auto res = detect_communities(g);
  const auto members = community_members(res);
  ASSERT_EQ(members.size(), static_cast<std::size_t>(res.num_communities));
  std::size_t total = 0;
  for (const auto& m : members) total += m.size();
  EXPECT_EQ(total, 12u);
}

// Property sweep: on random graphs of varied density, Louvain labels are
// dense, modularity is within [-0.5, 1], and never below the trivial
// all-in-one division.
class LouvainProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(LouvainProperty, Invariants) {
  const auto [n, p] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  const Graph g = random_topology(n, p, rng);
  const auto res = detect_communities(g);
  ASSERT_EQ(res.community.size(), static_cast<std::size_t>(n));
  for (int c : res.community) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, res.num_communities);
  }
  EXPECT_GE(res.modularity, -0.5);
  EXPECT_LE(res.modularity, 1.0);
  const std::vector<int> trivial(static_cast<std::size_t>(n), 0);
  EXPECT_GE(res.modularity, modularity(g, trivial) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LouvainProperty,
    ::testing::Combine(::testing::Values(5, 20, 50),
                       ::testing::Values(0.1, 0.3, 0.7)));

}  // namespace
}  // namespace cloudqc
