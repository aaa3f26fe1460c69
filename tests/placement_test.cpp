#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "circuit/generators.hpp"
#include "circuit/workloads.hpp"
#include "graph/topology.hpp"
#include "partition/partitioner.hpp"
#include "placement/cost.hpp"
#include "placement/detail.hpp"
#include "placement/incremental_cost.hpp"
#include "placement/placement.hpp"
#include "test_doubles.hpp"

namespace cloudqc {
namespace {

QuantumCloud paper_cloud(std::uint64_t seed = 1, int computing = 20) {
  CloudConfig cfg;
  cfg.num_qpus = 20;
  cfg.computing_qubits_per_qpu = computing;
  cfg.comm_qubits_per_qpu = 5;
  cfg.link_probability = 0.3;
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

TEST(Cost, RemoteOpsAndCommCost) {
  CloudConfig cfg;
  cfg.num_qpus = 4;
  cfg.computing_qubits_per_qpu = 4;
  QuantumCloud cloud(cfg, ring_topology(4));
  Circuit c("t", 4);
  c.cx(0, 1);  // same QPU
  c.cx(1, 2);  // adjacent QPUs (distance 1)
  c.cx(0, 3);  // distance 2 on the ring
  const std::vector<QpuId> map{0, 0, 1, 2};
  EXPECT_EQ(placement_remote_ops(c, map), 2u);
  EXPECT_DOUBLE_EQ(placement_comm_cost(c, cloud, map), 1.0 + 2.0);
}

TEST(Cost, FitsChecksFreeCapacity) {
  CloudConfig cfg;
  cfg.num_qpus = 2;
  cfg.computing_qubits_per_qpu = 2;
  QuantumCloud cloud(cfg, ring_topology(2));
  EXPECT_TRUE(placement_fits(cloud, {0, 0, 1}));
  EXPECT_FALSE(placement_fits(cloud, {0, 0, 0}));
  cloud.qpu(0).reserve_computing(1);
  EXPECT_FALSE(placement_fits(cloud, {0, 0, 1}));
}

TEST(Cost, EstimateTimeSingleQpuHasNoEprTerm) {
  CloudConfig cfg;
  cfg.num_qpus = 2;
  cfg.computing_qubits_per_qpu = 10;
  QuantumCloud cloud(cfg, ring_topology(2));
  Circuit c("t", 2);
  c.cx(0, 1);
  const CircuitDag dag(c);
  const double local = estimate_execution_time(c, dag, cloud, {0, 0});
  const double remote = estimate_execution_time(c, dag, cloud, {0, 1});
  EXPECT_DOUBLE_EQ(local, 1.0);
  // p=0.3 → expected 1/0.3 rounds à 10 + 6.1 overhead.
  EXPECT_NEAR(remote, 10.0 / 0.3 + 6.1, 1e-9);
}

/// The paper cloud with 10..19 of each QPU's 20 computing qubits taken, so
/// no single community can host a mid-sized job.
QuantumCloud scattered_cloud(std::uint64_t seed) {
  QuantumCloud cloud = paper_cloud(seed);
  Rng occupy(seed + 100);
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    cloud.qpu(q).reserve_computing(10 + static_cast<int>(occupy.below(10)));
  }
  return cloud;
}

TEST(Cost, FinalizeWithPrebuiltDagMatchesOwnDag) {
  const QuantumCloud cloud = paper_cloud();
  const Circuit c = make_workload("knn_n67");
  const CircuitDag dag(c);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<QpuId> map(static_cast<std::size_t>(c.num_qubits()));
    for (auto& q : map) {
      q = static_cast<QpuId>(
          rng.below(static_cast<std::uint64_t>(1 + trial % cloud.num_qpus())));
    }
    EXPECT_TRUE(testing::identical_placements(
        finalize_placement(c, cloud, map, 0.5, 0.5),
        finalize_placement(c, dag, cloud, map, 0.5, 0.5)))
        << "trial " << trial;
  }
}

TEST(Cost, FinalizeFillsEverything) {
  QuantumCloud cloud = paper_cloud();
  const Circuit c = gen::ghz(30);
  std::vector<QpuId> map(30, 0);
  for (int q = 20; q < 30; ++q) map[static_cast<std::size_t>(q)] = 1;
  const Placement p = finalize_placement(c, cloud, map, 0.5, 0.5);
  EXPECT_EQ(p.qubits_per_qpu[0], 20);
  EXPECT_EQ(p.qubits_per_qpu[1], 10);
  EXPECT_EQ(p.remote_ops, 1u);  // the chain crosses once
  EXPECT_GT(p.score, 0.0);
  EXPECT_EQ(p.num_qpus_used(), 2);
}

TEST(Cost, NumQpusUsedMatchesSetSemantics) {
  // The flat-array scan must agree with the old std::set implementation on
  // random mappings, both with and without populated qubits_per_qpu.
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(60));
    const int num_qpus = 1 + static_cast<int>(rng.below(12));
    Placement p;
    p.qubit_to_qpu.resize(static_cast<std::size_t>(n));
    for (auto& q : p.qubit_to_qpu) {
      q = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(num_qpus)));
    }
    const std::set<QpuId> distinct(p.qubit_to_qpu.begin(),
                                   p.qubit_to_qpu.end());
    ASSERT_EQ(p.num_qpus_used(), static_cast<int>(distinct.size()));
    // Finalized path: per-QPU counts populated.
    p.qubits_per_qpu.assign(static_cast<std::size_t>(num_qpus), 0);
    for (const QpuId q : p.qubit_to_qpu) {
      ++p.qubits_per_qpu[static_cast<std::size_t>(q)];
    }
    ASSERT_EQ(p.num_qpus_used(), static_cast<int>(distinct.size()));
  }
  const Placement empty;
  EXPECT_EQ(empty.num_qpus_used(), 0);
}

TEST(PartitionInteractionGraph, AggregatesCuts) {
  Graph ig(4);
  ig.add_edge(0, 1, 3.0);
  ig.add_edge(1, 2, 2.0);
  ig.add_edge(2, 3, 4.0);
  const WeightedCsr pg =
      detail::partition_interaction_graph(WeightedCsr(ig), {0, 0, 1, 1}, 2);
  EXPECT_EQ(pg.num_nodes(), 2);
  ASSERT_EQ(pg.degree(0), 1u);
  EXPECT_EQ(pg.to(pg.begin(0)), 1);
  EXPECT_DOUBLE_EQ(pg.weight(pg.begin(0)), 2.0);
  EXPECT_DOUBLE_EQ(pg.node_weight(0), 2.0);  // two qubits
}

/// Community selection on a freshly built weighted topology: the
/// reference for callers that build it once and reuse it.
std::optional<std::vector<QpuId>> select_community(const QuantumCloud& cloud,
                                                   int needed,
                                                   std::uint64_t seed,
                                                   int min_qpus = 1) {
  return detail::select_qpus_by_community(
      cloud, WeightedCsr(cloud.resource_weighted_topology()), needed, seed,
      min_qpus);
}

/// Algorithm 2 with an empty centre memo: the reference for callers that
/// share one memo across calls.
std::optional<std::vector<QpuId>> map_fresh(
    const WeightedCsr& pg, const QuantumCloud& cloud,
    const std::vector<QpuId>& candidates) {
  detail::CenterMemo centers;
  return detail::map_partitions(pg, cloud, candidates, centers);
}

TEST(SelectQpus, CommunityReturnsEnoughCapacity) {
  QuantumCloud cloud = paper_cloud(3);
  const auto sel = select_community(cloud, 70, 1);
  ASSERT_TRUE(sel.has_value());
  int cap = 0;
  for (const QpuId q : *sel) cap += cloud.qpu(q).free_computing();
  EXPECT_GE(cap, 70);
}

TEST(SelectQpus, BfsReturnsConnectedPrefix) {
  QuantumCloud cloud = paper_cloud(4);
  const auto sel = detail::select_qpus_by_bfs(cloud, 70);
  ASSERT_TRUE(sel.has_value());
  int cap = 0;
  for (const QpuId q : *sel) cap += cloud.qpu(q).free_computing();
  EXPECT_GE(cap, 70);
  EXPECT_LE(sel->size(), 5u);  // 4 QPUs à 20 qubits would do
}

TEST(SelectQpus, ImpossibleRequestReturnsNullopt) {
  QuantumCloud cloud = paper_cloud(5);
  EXPECT_FALSE(select_community(cloud, 100000, 1).has_value());
  EXPECT_FALSE(detail::select_qpus_by_bfs(cloud, 100000).has_value());
}

TEST(SelectQpus, SharedWeightedTopologyMatchesFreshBuilds) {
  bool grew = false;
  for (const std::uint64_t cloud_seed : {3u, 4u}) {
    for (const QuantumCloud& cloud :
         {paper_cloud(cloud_seed), scattered_cloud(cloud_seed)}) {
      const WeightedCsr weighted(cloud.resource_weighted_topology());
      for (const int needed : {10, 40, 70, 100, 1000}) {
        for (int min_qpus = 1; min_qpus <= 4; ++min_qpus) {
          for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto own = select_community(cloud, needed, seed, min_qpus);
            EXPECT_EQ(own, detail::select_qpus_by_community(
                               cloud, weighted, needed, seed, min_qpus))
                << needed << " qubits, seed " << seed;
            if (own.has_value() && !std::is_sorted(own->begin(), own->end())) {
              grew = true;
            }
          }
        }
      }
    }
  }
  // Communities are listed in ascending id order, so only the grow path
  // returns an unsorted set.
  EXPECT_TRUE(grew);
}

TEST(MapPartitions, SharedCenterMemoMatchesFreshCalls) {
  const QuantumCloud cloud = scattered_cloud(3);
  const Circuit c = make_workload("knn_n67");
  const WeightedCsr interaction(c.interaction_graph());
  std::vector<std::vector<QpuId>> candidate_sets;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto set = select_community(cloud, 90, seed, 4);
    ASSERT_TRUE(set.has_value());
    candidate_sets.push_back(*set);
    std::reverse(set->begin(), set->end());
    candidate_sets.push_back(*set);  // same set, other order
  }
  const std::set<std::vector<QpuId>> distinct(candidate_sets.begin(),
                                              candidate_sets.end());
  detail::CenterMemo centers;
  for (int round = 0; round < 2; ++round) {
    for (int k = 2; k <= 4; ++k) {
      PartitionOptions popt;
      popt.num_parts = k;
      popt.seed = static_cast<std::uint64_t>(k);
      const WeightedCsr pg = detail::partition_interaction_graph(
          interaction, partition_graph(interaction, popt).part, k);
      for (const auto& candidates : candidate_sets) {
        EXPECT_EQ(map_fresh(pg, cloud, candidates),
                  detail::map_partitions(pg, cloud, candidates, centers))
            << "k " << k << ", round " << round;
      }
    }
  }
  // One entry per ordered candidate vector: a reordered set is its own key.
  EXPECT_EQ(centers.size(), distinct.size());
}

TEST(MapPartitions, CenterMemoKeysOnCandidateOrder) {
  // Every QPU of a ring is a centre, so the order of the candidates picks
  // the one graph_center_of returns, and with it where partition 0 lands.
  // A memo keyed on the sorted set would give the second rotation the
  // first one's centre.
  CloudConfig cfg;
  cfg.num_qpus = 6;
  cfg.computing_qubits_per_qpu = 10;
  const QuantumCloud cloud(cfg, ring_topology(6));
  Graph g(2);
  for (NodeId p = 0; p < 2; ++p) g.set_node_weight(p, 5.0);
  g.add_edge(0, 1, 1.0);
  const WeightedCsr pg(g);
  detail::CenterMemo centers;
  for (const std::vector<QpuId>& candidates :
       {std::vector<QpuId>{0, 1, 2, 3, 4, 5},
        std::vector<QpuId>{3, 4, 5, 0, 1, 2}}) {
    const auto fresh = map_fresh(pg, cloud, candidates);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ((*fresh)[0], candidates.front());
    EXPECT_EQ(fresh, detail::map_partitions(pg, cloud, candidates, centers));
  }
}

TEST(MapPartitions, TooFewCandidatesFails) {
  QuantumCloud cloud = paper_cloud();
  Graph pg(3);
  pg.add_edge(0, 1, 5.0);
  pg.add_edge(1, 2, 5.0);
  EXPECT_FALSE(map_fresh(WeightedCsr(pg), cloud, {0, 1}).has_value());
}

TEST(MapPartitions, HeavyNeighboursLandClose) {
  CloudConfig cfg;
  cfg.num_qpus = 6;
  cfg.computing_qubits_per_qpu = 10;
  QuantumCloud cloud(cfg, ring_topology(6));
  // Partition graph: a heavy chain 0-1-2.
  Graph pg(3);
  for (NodeId p = 0; p < 3; ++p) pg.set_node_weight(p, 5.0);
  pg.add_edge(0, 1, 100.0);
  pg.add_edge(1, 2, 100.0);
  const auto mapping = map_fresh(WeightedCsr(pg), cloud, {0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(mapping.has_value());
  // Adjacent parts must sit on adjacent QPUs.
  EXPECT_EQ(cloud.distance((*mapping)[0], (*mapping)[1]), 1);
  EXPECT_EQ(cloud.distance((*mapping)[1], (*mapping)[2]), 1);
  // Distinct QPUs.
  std::set<QpuId> used(mapping->begin(), mapping->end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(CloudQcPlacer, SmallCircuitTakesSingleQpu) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  Rng rng(1);
  const auto p = placer->place(gen::ghz(10), cloud, rng);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->num_qpus_used(), 1);
  EXPECT_EQ(p->remote_ops, 0u);
  EXPECT_DOUBLE_EQ(p->comm_cost, 0.0);
}

TEST(CloudQcPlacer, LargeCircuitSpansQpusFeasibly) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  Rng rng(1);
  const Circuit c = make_workload("qugan_n111");
  const auto p = placer->place(c, cloud, rng);
  ASSERT_TRUE(p.has_value());
  EXPECT_GE(p->num_qpus_used(), 6);  // 111 qubits / 20 per QPU
  EXPECT_TRUE(placement_fits(cloud, p->qubit_to_qpu));
  EXPECT_GT(p->remote_ops, 0u);
}

TEST(CloudQcPlacer, RefusesWhenCloudFull) {
  QuantumCloud cloud = paper_cloud();
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    cloud.qpu(q).reserve_computing(cloud.qpu(q).free_computing());
  }
  const auto placer = make_cloudqc_placer();
  Rng rng(1);
  EXPECT_FALSE(placer->place(gen::ghz(10), cloud, rng).has_value());
}

TEST(CloudQcPlacer, GhzChainPlacementIsCheap) {
  // A GHZ chain has a path interaction graph — a good placer should cut it
  // only k-1 times (k = number of QPUs used).
  QuantumCloud cloud = paper_cloud(7);
  const auto placer = make_cloudqc_placer();
  Rng rng(1);
  const auto p = placer->place(gen::ghz(127), cloud, rng);
  ASSERT_TRUE(p.has_value());
  const int k = p->num_qpus_used();
  EXPECT_LE(p->remote_ops, static_cast<std::size_t>(2 * k));
}

struct BaselineCase {
  const char* label;
  std::unique_ptr<Placer> (*make)();
};

std::unique_ptr<Placer> make_sa() { return make_annealing_placer(4000); }
std::unique_ptr<Placer> make_ga() { return make_genetic_placer(20, 30); }

class BaselinePlacerTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Placer> placer() const {
    switch (GetParam()) {
      case 0: return make_random_placer();
      case 1: return make_sa();
      case 2: return make_ga();
      case 3: return make_cloudqc_bfs_placer();
      default: return make_cloudqc_placer();
    }
  }
};

TEST_P(BaselinePlacerTest, ProducesFeasiblePlacements) {
  QuantumCloud cloud = paper_cloud(2);
  const auto placer = this->placer();
  Rng rng(9);
  for (const char* name : {"knn_n67", "cat_n65", "ising_n34"}) {
    const Circuit c = make_workload(name);
    const auto p = placer->place(c, cloud, rng);
    ASSERT_TRUE(p.has_value()) << placer->name() << " on " << name;
    ASSERT_EQ(p->qubit_to_qpu.size(),
              static_cast<std::size_t>(c.num_qubits()));
    EXPECT_TRUE(placement_fits(cloud, p->qubit_to_qpu))
        << placer->name() << " on " << name;
    // Derived metrics are consistent.
    EXPECT_EQ(p->remote_ops, placement_remote_ops(c, p->qubit_to_qpu));
  }
}

TEST_P(BaselinePlacerTest, RejectsOversizedJob) {
  QuantumCloud cloud = paper_cloud(2);
  const auto placer = this->placer();
  Rng rng(9);
  Circuit huge("huge", 500);
  for (QubitId q = 0; q + 1 < 500; ++q) huge.cx(q, q + 1);
  EXPECT_FALSE(placer->place(huge, cloud, rng).has_value()) << placer->name();
}

INSTANTIATE_TEST_SUITE_P(AllPlacers, BaselinePlacerTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Cost, RemoteOpsPerQpuCountsBothEndpoints) {
  CloudConfig cfg;
  cfg.num_qpus = 3;
  cfg.computing_qubits_per_qpu = 4;
  QuantumCloud cloud(cfg, ring_topology(3));
  Circuit c("t", 3);
  c.cx(0, 1);  // QPU 0 - QPU 1
  c.cx(0, 2);  // QPU 0 - QPU 2
  c.cx(1, 2);  // QPU 1 - QPU 2
  const auto per_qpu = remote_ops_per_qpu(c, {0, 1, 2}, 3);
  EXPECT_EQ(per_qpu, (std::vector<std::size_t>{2, 2, 2}));
  // Co-located gates don't count.
  const auto none = remote_ops_per_qpu(c, {0, 0, 0}, 3);
  EXPECT_EQ(none, (std::vector<std::size_t>{0, 0, 0}));
}

TEST(CloudQcPlacer, EpsilonConstraintRespected) {
  QuantumCloud cloud = paper_cloud(5);
  PlacerOptions opts;
  opts.max_remote_ops_per_qpu = 60;
  const auto placer = make_cloudqc_placer(opts);
  Rng rng(1);
  const Circuit c = make_workload("knn_n129");
  const auto p = placer->place(c, cloud, rng);
  if (p.has_value()) {
    const auto per_qpu =
        remote_ops_per_qpu(c, p->qubit_to_qpu, cloud.num_qpus());
    for (const std::size_t r : per_qpu) EXPECT_LE(r, 60u);
  }
  // An impossible epsilon must yield no placement rather than a violating
  // one (knn_n129 cannot be placed on 7 QPUs with <1 remote op each).
  PlacerOptions strict;
  strict.max_remote_ops_per_qpu = 1;
  Rng rng2(1);
  const auto none = make_cloudqc_placer(strict)->place(c, cloud, rng2);
  EXPECT_FALSE(none.has_value());
}

TEST(Polish, NeverWorsensCost) {
  QuantumCloud cloud = paper_cloud(5);
  Rng rng(3);
  for (const char* name : {"qugan_n71", "knn_n67", "multiplier_n45"}) {
    const Circuit c = make_workload(name);
    const auto rough = make_random_placer()->place(c, cloud, rng);
    ASSERT_TRUE(rough.has_value());
    std::vector<QpuId> map = rough->qubit_to_qpu;
    detail::polish_placement(c, cloud, map, rng,
                             PlacementContext::for_circuit(c));
    EXPECT_TRUE(placement_fits(cloud, map)) << name;
    EXPECT_LE(placement_comm_cost(c, cloud, map), rough->comm_cost) << name;
  }
}

TEST(Polish, FindsObviousImprovement) {
  // Two interacting qubits placed two hops apart with a free slot next
  // door: one move fixes it.
  CloudConfig cfg;
  cfg.num_qpus = 3;
  cfg.computing_qubits_per_qpu = 2;
  QuantumCloud cloud(cfg, ring_topology(3));
  Circuit c("t", 2);
  for (int i = 0; i < 4; ++i) c.cx(0, 1);
  std::vector<QpuId> map{0, 1};
  Rng rng(1);
  detail::polish_placement(c, cloud, map, rng,
                           PlacementContext::for_circuit(c));
  EXPECT_EQ(map[0], map[1]);  // co-located: cost 0
}

TEST(PlacerComparison, CloudQcBeatsRandomOnStructuredCircuit) {
  QuantumCloud cloud = paper_cloud(5);
  Rng rng(3);
  const Circuit c = make_workload("qugan_n111");
  const auto cq = make_cloudqc_placer()->place(c, cloud, rng);
  ASSERT_TRUE(cq.has_value());
  double random_total = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto r = make_random_placer()->place(c, cloud, rng);
    ASSERT_TRUE(r.has_value());
    random_total += static_cast<double>(r->remote_ops);
  }
  EXPECT_LT(static_cast<double>(cq->remote_ops), random_total / 5.0);
}

TEST(AnnealingPlacer, ImprovesOverIterations) {
  QuantumCloud cloud = paper_cloud(4);
  Rng rng1(5), rng2(5);
  const Circuit c = make_workload("knn_n67");
  const auto coarse = make_annealing_placer(100)->place(c, cloud, rng1);
  const auto fine = make_annealing_placer(20000)->place(c, cloud, rng2);
  ASSERT_TRUE(coarse.has_value() && fine.has_value());
  EXPECT_LE(fine->comm_cost, coarse->comm_cost * 1.05);
}

}  // namespace
}  // namespace cloudqc
