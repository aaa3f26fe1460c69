#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "circuit/circuit.hpp"

namespace cloudqc {
namespace {

TEST(Gate, ArityClassification) {
  EXPECT_FALSE(is_two_qubit(GateKind::kH));
  EXPECT_FALSE(is_two_qubit(GateKind::kMeasure));
  EXPECT_TRUE(is_two_qubit(GateKind::kCx));
  EXPECT_TRUE(is_two_qubit(GateKind::kRzz));
  EXPECT_TRUE(is_two_qubit(GateKind::kSwap));
}

TEST(Gate, Names) {
  EXPECT_EQ(gate_name(GateKind::kCx), "cx");
  EXPECT_EQ(gate_name(GateKind::kMeasure), "measure");
}

TEST(Circuit, AddValidatesQubits) {
  Circuit c("t", 2);
  EXPECT_NO_THROW(c.h(0));
  EXPECT_NO_THROW(c.cx(0, 1));
  EXPECT_THROW(c.h(2), std::logic_error);
  EXPECT_THROW(c.cx(0, 5), std::logic_error);
  EXPECT_THROW(c.cx(1, 1), std::logic_error);  // identical qubits
}

TEST(Circuit, TwoQubitGateCount) {
  Circuit c("t", 3);
  c.h(0);
  c.cx(0, 1);
  c.cz(1, 2);
  c.t(2);
  c.measure(0);
  EXPECT_EQ(c.two_qubit_gate_count(), 2u);
  EXPECT_EQ(c.num_gates(), 5u);
}

TEST(Circuit, DepthSequentialChain) {
  Circuit c("t", 2);
  c.h(0);     // depth 1
  c.h(0);     // depth 2
  c.cx(0, 1); // depth 3
  c.h(1);     // depth 4
  EXPECT_EQ(c.depth(), 4);
}

TEST(Circuit, DepthParallelGates) {
  Circuit c("t", 4);
  c.h(0);
  c.h(1);
  c.h(2);
  c.h(3);
  EXPECT_EQ(c.depth(), 1);
  c.cx(0, 1);
  c.cx(2, 3);
  EXPECT_EQ(c.depth(), 2);
}

TEST(Circuit, DepthTwoQubitSynchronises) {
  Circuit c("t", 3);
  c.h(0);
  c.h(0);   // qubit 0 at level 2
  c.cx(0, 1);  // must wait for qubit 0 → level 3 on both
  c.h(1);
  EXPECT_EQ(c.depth(), 4);
}

TEST(Circuit, EmptyCircuit) {
  Circuit c("t", 3);
  EXPECT_EQ(c.depth(), 0);
  EXPECT_EQ(c.two_qubit_gate_count(), 0u);
  EXPECT_DOUBLE_EQ(c.two_qubit_density(), 0.0);
}

TEST(Circuit, InteractionGraphWeights) {
  Circuit c("t", 3);
  c.cx(0, 1);
  c.cx(0, 1);
  c.cx(1, 0);  // same pair, opposite direction — still edge (0,1)
  c.cz(1, 2);
  const Graph g = c.interaction_graph();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), 1.0);
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Circuit, InteractionGraphIgnoresSingleQubitGates) {
  Circuit c("t", 2);
  c.h(0);
  c.measure(1);
  const Graph g = c.interaction_graph();
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Circuit, TwoQubitDensity) {
  Circuit c("t", 4);
  c.cx(0, 1);
  c.cx(2, 3);
  EXPECT_DOUBLE_EQ(c.two_qubit_density(), 0.5);
}

TEST(Circuit, NameRoundTrip) {
  Circuit c("original", 1);
  EXPECT_EQ(c.name(), "original");
  c.set_name("renamed");
  EXPECT_EQ(c.name(), "renamed");
}

TEST(Circuit, CopiesShareTheGateList) {
  Circuit c("t", 3);
  c.h(0);
  c.cx(0, 1);
  const Circuit copy = c;
  EXPECT_EQ(&copy.gates(), &c.gates());  // one list, not two equal ones
  EXPECT_EQ(copy.num_gates(), 2u);
}

TEST(Circuit, AddOnACopyLeavesTheOriginalUnchanged) {
  Circuit original("t", 3);
  original.h(0);
  original.cx(0, 1);
  Circuit copy = original;
  copy.cx(1, 2);
  EXPECT_NE(&copy.gates(), &original.gates());
  ASSERT_EQ(original.num_gates(), 2u);
  ASSERT_EQ(copy.num_gates(), 3u);
  EXPECT_EQ(copy.gates()[2].kind, GateKind::kCx);
  EXPECT_EQ(original.depth(), 2);
  EXPECT_EQ(copy.depth(), 3);

  // And the other way round: the original grows, the copy does not.
  Circuit second = original;
  original.measure(2);
  EXPECT_EQ(original.num_gates(), 3u);
  EXPECT_EQ(second.num_gates(), 2u);
  EXPECT_EQ(second.interaction_graph().num_edges(), 1u);
}

TEST(Circuit, AddOnTheSoleOwnerKeepsItsList) {
  Circuit c("t", 2);
  c.h(0);
  const std::vector<Gate>* before = &c.gates();
  {
    const Circuit copy = c;  // released before the next add()
    (void)copy;
  }
  c.h(1);
  EXPECT_EQ(&c.gates(), before);  // appended in place, no private copy
  EXPECT_EQ(c.num_gates(), 2u);
}

TEST(Circuit, ConcurrentCopiesReadTheSameGates) {
  // Workers copy and read one shared circuit at once (the parallel
  // engines' pattern); the reference counts are the only shared writes.
  Circuit c("t", 4);
  for (int r = 0; r < 50; ++r) c.cx(r % 3, 3);
  std::vector<std::size_t> seen(4, 0);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < seen.size(); ++w) {
    workers.emplace_back([&c, &seen, w] {
      for (int i = 0; i < 200; ++i) {
        const Circuit copy = c;
        seen[w] += copy.two_qubit_gate_count();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const std::size_t s : seen) EXPECT_EQ(s, 200u * 50u);
}

}  // namespace
}  // namespace cloudqc
