#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/workloads.hpp"
#include "graph/topology.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

QuantumCloud make_cloud(int qpus, double epr_prob = 1.0, int comm = 5) {
  CloudConfig cfg;
  cfg.num_qpus = qpus;
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = comm;
  cfg.epr_success_prob = epr_prob;
  return QuantumCloud(cfg, ring_topology(qpus));
}

TEST(NetworkSim, LocalOnlyCircuitTimeIsDeterministic) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.h(0);        // 0.1
  c.cx(0, 1);    // 1.0
  c.measure(0);  // 5.0
  c.measure(1);  // 5.0 (parallel with the other measure)
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 0});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 0.1 + 1.0 + 5.0);
  EXPECT_EQ(sim.total_epr_rounds(), 0u);
}

TEST(NetworkSim, RemoteGateWithCertainEprTakesOneRound) {
  const auto cloud = make_cloud(2, /*epr_prob=*/1.0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  const auto done = sim.run_to_completion();
  // 1 EPR round (10) + remote overhead (1 + 5 + 0.1).
  EXPECT_DOUBLE_EQ(done[0].time, 10.0 + 6.1);
  EXPECT_EQ(sim.total_epr_rounds(), 1u);
}

TEST(NetworkSim, RemoteSlowerWhenEprUnreliable) {
  const auto alloc = make_average_allocator();
  Circuit c("t", 2);
  for (int i = 0; i < 20; ++i) c.cx(0, 1);

  auto run_with = [&](double p) {
    const auto cloud = make_cloud(2, p);
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      NetworkSimulator sim(cloud, *alloc, Rng(seed));
      sim.add_job(c, {0, 1});
      total += sim.run_to_completion()[0].time;
    }
    return total / 10;
  };
  EXPECT_GT(run_with(0.1), run_with(0.5) * 1.5);
}

TEST(NetworkSim, EmptyJobCompletesImmediately) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("empty", 3);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 0, 1});
  // A gateless job is born complete; there is nothing to run.
  EXPECT_FALSE(sim.run_until_next_completion().has_value());
}

TEST(NetworkSim, TwoJobsShareCommunicationQubits) {
  // One comm qubit per QPU: two concurrent remote gates on the same QPU
  // pair must serialise.
  const auto cloud = make_cloud(2, 1.0, /*comm=*/1);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  sim.add_job(c, {0, 1});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 16.1);
  EXPECT_DOUBLE_EQ(done[1].time, 32.2);  // waited for the first
}

TEST(NetworkSim, ParallelJobsOnDisjointQpusDontInterfere) {
  const auto cloud = make_cloud(4, 1.0, 1);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  sim.add_job(c, {2, 3});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 16.1);
  EXPECT_DOUBLE_EQ(done[1].time, 16.1);  // fully parallel
}

TEST(NetworkSim, DagOrderRespected) {
  // Remote gate then dependent local gate then measure: completion time
  // must be the sum, not the max.
  const auto cloud = make_cloud(2, 1.0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);    // remote: 16.1
  c.h(0);        // +0.1
  c.measure(0);  // +5
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  EXPECT_DOUBLE_EQ(sim.run_to_completion()[0].time, 16.1 + 0.1 + 5.0);
}

TEST(NetworkSim, MultiHopRemoteUsesPathProbability) {
  // Ring of 5, endpoints 2 hops apart, p = 1 → still 1 round; with p < 1
  // the expected rounds grow like p^-2.
  const auto cloud = make_cloud(5, 1.0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 2});
  EXPECT_DOUBLE_EQ(sim.run_to_completion()[0].time, 16.1);
}

TEST(NetworkSim, DeterministicForSeed) {
  const auto cloud = make_cloud(4, 0.3);
  const auto alloc = make_cloudqc_allocator();
  const Circuit c = make_workload("knn_n67");
  std::vector<QpuId> map(static_cast<std::size_t>(c.num_qubits()));
  for (std::size_t q = 0; q < map.size(); ++q) {
    map[q] = static_cast<QpuId>(q % 4);
  }
  auto run = [&] {
    NetworkSimulator sim(cloud, *alloc, Rng(77));
    sim.add_job(c, map);
    return sim.run_to_completion()[0].time;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(NetworkSim, StepAndNextEventTime) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 1);
  c.h(0);      // 0.1
  c.measure(0);  // 5.0
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0});
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*sim.next_event_time(), 0.1);
  EXPECT_FALSE(sim.step().has_value());  // H done, job not finished
  EXPECT_DOUBLE_EQ(sim.now(), 0.1);
  const auto completion = sim.step();
  ASSERT_TRUE(completion.has_value());
  EXPECT_DOUBLE_EQ(completion->time, 5.1);
  EXPECT_FALSE(sim.next_event_time().has_value());
}

TEST(NetworkSim, AdvanceTimeBounds) {
  const auto cloud = make_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.advance_time(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
  EXPECT_THROW(sim.advance_time(10.0), std::logic_error);  // backwards
  Circuit c("t", 1);
  c.h(0);
  sim.add_job(c, {0});
  EXPECT_THROW(sim.advance_time(100.0), std::logic_error);  // skips event
}

TEST(NetworkSim, ZeroCommCapacityStallsLoudly) {
  // Failure injection: a cloud whose QPUs have no communication qubits can
  // never execute a remote gate — the simulator must fail loudly instead
  // of spinning or silently dropping the gate.
  const auto cloud = make_cloud(2, 1.0, /*comm=*/0);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.add_job(c, {0, 1});
  EXPECT_THROW(sim.run_to_completion(), std::logic_error);
}

TEST(NetworkSim, ExtremeEprFailureStillTerminates) {
  // p=0.001 over 2 hops: the geometric sampler's round cap must keep a
  // single unlucky gate from stalling the run forever.
  CloudConfig cfg;
  cfg.num_qpus = 5;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 1;
  cfg.epr_success_prob = 0.001;
  QuantumCloud cloud(cfg, ring_topology(5));
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(13));
  sim.add_job(c, {0, 2});
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GT(done[0].time, 0.0);
}

TEST(NetworkSim, ManyConcurrentJobsConserveCommQubits) {
  // Stress: 12 jobs × remote chains on a small cloud. If any release were
  // missed, the later jobs would stall and the run would throw.
  const auto cloud = make_cloud(4, 0.5, 2);
  const auto alloc = make_average_allocator();
  Circuit c("t", 2);
  for (int i = 0; i < 10; ++i) c.cx(0, 1);
  NetworkSimulator sim(cloud, *alloc, Rng(5));
  for (int j = 0; j < 12; ++j) {
    sim.add_job(c, {static_cast<QpuId>(j % 4),
                    static_cast<QpuId>((j + 1) % 4)});
  }
  const auto done = sim.run_to_completion();
  EXPECT_EQ(done.size(), 12u);
}

TEST(NetworkSim, AllSchedulersCompleteAMediumWorkload) {
  const auto cloud = make_cloud(4, 0.3, 5);
  const Circuit c = make_workload("knn_n67");
  std::vector<QpuId> map(static_cast<std::size_t>(c.num_qubits()));
  for (std::size_t q = 0; q < map.size(); ++q) {
    map[q] = static_cast<QpuId>(q % 4);
  }
  for (const auto& alloc :
       {make_cloudqc_allocator(), make_greedy_allocator(),
        make_average_allocator(), make_random_allocator()}) {
    NetworkSimulator sim(cloud, *alloc, Rng(5));
    sim.add_job(c, map);
    const auto done = sim.run_to_completion();
    ASSERT_EQ(done.size(), 1u) << alloc->name();
    EXPECT_GT(done[0].time, 0.0) << alloc->name();
  }
}

/// Forwards to a real router and counts the calls.
class CountingRouter final : public EprRouter {
 public:
  explicit CountingRouter(std::unique_ptr<EprRouter> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::optional<EprPath> route(
      const QuantumCloud& cloud, QpuId src, QpuId dst,
      const std::vector<int>& free_comm) const override {
    ++calls;
    return inner_->route(cloud, src, dst, free_comm);
  }
  mutable int calls = 0;

 private:
  std::unique_ptr<EprRouter> inner_;
};

TEST(NetworkSim, BlockedOpIsRoutedOncePerDecisionPoint) {
  // Line 0—1—2—3 plus the link 4—5, one comm qubit per QPU. Job A (QPUs
  // 1, 2) saturates the line's interior. Job B then readies two ops at
  // once: 0↔3, whose only path transits the saturated cut, and 4↔5. In
  // that decision point round 1 funds both, the router blocks 0↔3 and
  // 4↔5 starts; round 2 funds 0↔3 again, and since budgets only shrank
  // within the decision point it is requeued without asking the router.
  // Calls: A (1), round 1 (2), round 2 (0), then 0↔3 once A releases the
  // cut (1).
  Graph topo(6);
  for (NodeId q = 0; q < 3; ++q) topo.add_edge(q, q + 1);
  topo.add_edge(4, 5);
  CloudConfig cfg;
  cfg.num_qpus = 6;
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = 1;
  cfg.epr_success_prob = 1.0;
  const QuantumCloud cloud(cfg, std::move(topo));
  const auto alloc = make_cloudqc_allocator();
  const CountingRouter router(make_masked_shortest_router());

  Circuit a("a", 2);
  a.cx(0, 1);
  Circuit b("b", 4);
  b.cx(0, 1);
  b.cx(2, 3);
  NetworkSimulator sim(cloud, *alloc, Rng(1), &router);
  sim.add_job(a, {1, 2});
  EXPECT_EQ(router.calls, 1);
  sim.add_job(b, {0, 3, 4, 5});
  EXPECT_EQ(router.calls, 3);
  EXPECT_EQ(sim.num_allocation_rounds(), 3u);
  const auto done = sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(router.calls, 4);
  EXPECT_DOUBLE_EQ(done[0].time, 16.1);  // A
  EXPECT_DOUBLE_EQ(done[1].time, 32.2);  // B waits for A's cut
}

/// Forwards to a real allocator and records every call's requests as
/// (priority, qpu_a, qpu_b) in request order.
class RecordingAllocator final : public CommAllocator {
 public:
  using Request = std::tuple<double, QpuId, QpuId>;

  explicit RecordingAllocator(std::unique_ptr<CommAllocator> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& rng) const override {
    std::vector<Request>& call = calls.emplace_back();
    for (const CommRequest& r : requests) {
      call.emplace_back(r.priority, r.qpu_a, r.qpu_b);
    }
    return inner_->allocate(requests, std::move(free_comm), rng);
  }
  mutable std::vector<std::vector<Request>> calls;

 private:
  std::unique_ptr<CommAllocator> inner_;
};

TEST(NetworkSim, RoundRequestsKeepArrivalOrderAcrossStartsAndCancels) {
  // Line 0—1—2—3 plus 4—5 and 4—6, one comm qubit per QPU. Job A holds
  // 1↔2, so job C's 1↔2 op waits unfunded. Job B then readies 0↔3
  // (priority 1: a second 0↔3 op follows it), 4↔5 and 4↔6 at once. Its
  // decision point's first round funds 0↔3, which the router blocks on
  // the saturated cut, starts 4↔5 and leaves 4↔6 unfunded; the second
  // round sees the survivors in arrival order and starts nothing. After
  // C is cancelled, the round at A's release sees only B's two ops.
  Graph topo(7);
  for (NodeId q = 0; q < 3; ++q) topo.add_edge(q, q + 1);
  topo.add_edge(4, 5);
  topo.add_edge(4, 6);
  CloudConfig cfg;
  cfg.num_qpus = 7;
  cfg.computing_qubits_per_qpu = 100;
  cfg.comm_qubits_per_qpu = 1;
  cfg.epr_success_prob = 1.0;
  const QuantumCloud cloud(cfg, std::move(topo));
  const RecordingAllocator alloc(make_cloudqc_allocator());
  const auto router = make_masked_shortest_router();

  Circuit a("a", 2);
  a.cx(0, 1);
  Circuit c("c", 2);
  c.cx(0, 1);
  Circuit b("b", 6);
  b.cx(0, 1);
  b.cx(0, 1);
  b.cx(2, 3);
  b.cx(4, 5);
  NetworkSimulator sim(cloud, alloc, Rng(1), router.get());
  sim.add_job(a, {1, 2});
  const int job_c = sim.add_job(c, {1, 2});
  sim.add_job(b, {0, 3, 4, 5, 4, 6});
  using R = RecordingAllocator::Request;
  ASSERT_EQ(alloc.calls.size(), 4u);
  EXPECT_EQ(alloc.calls[2], (std::vector<R>{{0.0, 1, 2},
                                            {1.0, 0, 3},
                                            {0.0, 4, 5},
                                            {0.0, 4, 6}}));
  EXPECT_EQ(alloc.calls[3],
            (std::vector<R>{{0.0, 1, 2}, {1.0, 0, 3}, {0.0, 4, 6}}));

  sim.cancel_job(job_c);
  while (alloc.calls.size() == 4u) sim.step();
  EXPECT_EQ(alloc.calls[4], (std::vector<R>{{1.0, 0, 3}, {0.0, 4, 6}}));
}

}  // namespace
}  // namespace cloudqc
