// Unit tests of the partitioner's internal refinement machinery
// (partition/internal.hpp): FM-style boundary moves and empty-part repair.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/topology.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"

namespace cloudqc {
namespace {

TEST(Refine, MovesBoundaryNodeWithPositiveGain) {
  // Path 0-1-2-3 with node 1 initially on the wrong side: moving it to
  // part 0 removes two cut edges and adds one.
  Graph g(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 5.0);
  std::vector<int> part{0, 1, 1, 1};
  Rng rng(1);
  internal::refine_partition(WeightedCsr(g), part, 2, /*max_part_weight=*/3.0,
                             /*passes=*/4, rng);
  EXPECT_EQ(part[1], 0);  // joined its heavy neighbour
  EXPECT_EQ(edge_cut(g, part), 1.0);
}

TEST(Refine, RespectsBalanceCeiling) {
  // All nodes want to join part 0 (heavy edges), but the ceiling allows at
  // most 3 nodes per part.
  Graph g(6);
  for (NodeId u = 1; u < 6; ++u) g.add_edge(0, u, 10.0);
  std::vector<int> part{0, 0, 0, 1, 1, 1};
  Rng rng(1);
  internal::refine_partition(WeightedCsr(g), part, 2, 3.0, 8, rng);
  const auto weights = part_weights(g, part, 2);
  EXPECT_LE(weights[0], 3.0);
  EXPECT_LE(weights[1], 3.0);
}

TEST(Refine, DrainsOverweightPart) {
  Graph g(6);  // edgeless: only balance pressure drives moves
  std::vector<int> part{0, 0, 0, 0, 0, 1};
  Rng rng(1);
  internal::refine_partition(WeightedCsr(g), part, 2, 3.0, 8, rng);
  const auto weights = part_weights(g, part, 2);
  EXPECT_LE(weights[0], 3.0);
  EXPECT_LE(weights[1], 3.0);
}

TEST(Refine, TiedGainsGoToTheLowerPart) {
  // Node 0 gains 1.0 by joining part 2 or part 1. Its neighbour in part 2
  // is listed first, so a scan of its neighbours' parts meets part 2
  // first; the tie must still go to the lower index. Nodes 1 and 2 are
  // held in place by heavy edges inside their own parts.
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 5.0);
  g.add_edge(2, 4, 5.0);
  std::vector<int> part{0, 2, 1, 2, 1};
  Rng rng(1);
  internal::refine_partition(WeightedCsr(g), part, 3, /*max_part_weight=*/10.0,
                             /*passes=*/4, rng);
  EXPECT_EQ(part, (std::vector<int>{1, 2, 1, 2, 1}));
}

TEST(Refine, OverweightNodeMovesToUnconnectedPart) {
  // Part 0 holds three nodes under a ceiling of 2. Their only neighbour
  // sits in part 1, which is full; part 2 has room but no connection.
  // An overweight part must still shed a node there.
  Graph g(6);
  for (NodeId u = 0; u < 3; ++u) g.add_edge(u, 3, 1.0);
  std::vector<int> part{0, 0, 0, 1, 1, 2};
  Rng rng(1);
  internal::refine_partition(WeightedCsr(g), part, 3, /*max_part_weight=*/2.0,
                             /*passes=*/4, rng);
  EXPECT_EQ(part_weights(g, part, 3), (std::vector<double>{2.0, 2.0, 2.0}));
  EXPECT_EQ(part[3], 1);
  EXPECT_EQ(part[4], 1);
  EXPECT_EQ(part[5], 2);
}

TEST(Refine, NoopOnSinglePart) {
  Graph g(3);
  g.add_edge(0, 1);
  std::vector<int> part{0, 0, 0};
  Rng rng(1);
  internal::refine_partition(WeightedCsr(g), part, 1, 10.0, 4, rng);
  EXPECT_EQ(part, (std::vector<int>{0, 0, 0}));
}

TEST(RepairEmptyParts, FillsEveryPart) {
  Graph g(5);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 2.0);
  std::vector<int> part{0, 0, 0, 0, 0};
  internal::repair_empty_parts(WeightedCsr(g), part, 3);
  std::vector<int> count(3, 0);
  for (int p : part) ++count[static_cast<std::size_t>(p)];
  for (int c : count) EXPECT_GE(c, 1);
}

TEST(RepairEmptyParts, PicksLowConnectivityDonorNode) {
  // Nodes 0-1-2 form a heavy triangle; nodes 3 and 4 are isolated. Repair
  // should peel the isolated nodes first (cut increase 0).
  Graph g(5);
  g.add_edge(0, 1, 9.0);
  g.add_edge(1, 2, 9.0);
  g.add_edge(0, 2, 9.0);
  std::vector<int> part{0, 0, 0, 0, 0};
  internal::repair_empty_parts(WeightedCsr(g), part, 3);
  EXPECT_DOUBLE_EQ(edge_cut(g, part), 0.0);
  EXPECT_EQ(part[0], 0);
  EXPECT_EQ(part[1], 0);
  EXPECT_EQ(part[2], 0);
}

TEST(RepairEmptyParts, SkipsWhenMorePartsThanNodes) {
  Graph g(2);
  std::vector<int> part{0, 0};
  // Must not throw or distort.
  internal::repair_empty_parts(WeightedCsr(g), part, 5);
  EXPECT_EQ(part.size(), 2u);
}

}  // namespace
}  // namespace cloudqc
