#include <gtest/gtest.h>

#include <utility>

#include "circuit/generators.hpp"
#include "circuit/workloads.hpp"
#include "cloud/churn.hpp"
#include "core/incoming.hpp"
#include "core/streaming.hpp"
#include "graph/topology.hpp"
#include "schedule/routing.hpp"
#include "test_doubles.hpp"

namespace cloudqc {
namespace {

using testing::CountingPlacer;

QuantumCloud paper_cloud(std::uint64_t seed = 1) {
  CloudConfig cfg;
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

// A job pinned across the two components of a disconnected cloud has a
// remote op that no EPR path can serve. With a router the op stays
// blocked until the simulator runs out of events, and the core's one
// failure site names the job it finds stuck in flight. The static hop
// model refuses the job at admission, on the hop count (-1) of the
// unreachable QPU pair. Either way the job's reservation does not
// outlive the run.
TEST(Incoming, UnroutableOpNamesTheStuckJob) {
  CloudConfig cfg;
  cfg.num_qpus = 4;
  cfg.computing_qubits_per_qpu = 4;
  cfg.comm_qubits_per_qpu = 2;
  Graph topology(4);
  topology.add_edge(0, 1);
  topology.add_edge(2, 3);
  const testing::FixedPlacer placer({0, 0, 2, 2});
  const auto alloc = make_cloudqc_allocator();
  const auto router = make_masked_shortest_router();
  const std::vector<ArrivingJob> trace = {{gen::ghz(4), 0.0}};

  QuantumCloud cloud(cfg, topology);
  EngineOptions options;
  options.router = router.get();
  try {
    run_incoming(trace, cloud, placer, *alloc, options);
    FAIL() << "an unroutable job completed";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job 'ghz_n4'"), std::string::npos) << what;
    EXPECT_NE(what.find("no EPR path"), std::string::npos) << what;
  }
  // The stuck job's reservation is released with the run.
  EXPECT_EQ(cloud.total_free_computing(), cloud.total_computing_capacity());

  QuantumCloud static_cloud(cfg, topology);
  try {
    run_incoming(trace, static_cloud, placer, *alloc);
    FAIL() << "an unroutable job completed under the static hop model";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock: job 'ghz_n4'"), std::string::npos) << what;
    EXPECT_NE(what.find("no EPR path"), std::string::npos) << what;
  }
  EXPECT_EQ(static_cloud.total_free_computing(),
            static_cloud.total_computing_capacity());
}

TEST(Incoming, SingleArrivalMeasuresJctFromArrival) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(30), 100.0});
  const auto stats = run_incoming(trace, cloud, *placer, *alloc);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_DOUBLE_EQ(stats[0].arrival, 100.0);
  EXPECT_DOUBLE_EQ(stats[0].placed_time, 100.0);  // cloud was empty
  EXPECT_GT(stats[0].completion_time, 100.0);
  EXPECT_DOUBLE_EQ(stats[0].jct(),
                   stats[0].completion_time - stats[0].arrival);
}

TEST(Incoming, WidelySpacedJobsDontQueue) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(30), 0.0});
  trace.push_back({gen::ghz(30), 1e7});  // long after the first finishes
  const auto stats = run_incoming(trace, cloud, *placer, *alloc);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[1].placed_time, 1e7);  // no queueing delay
}

TEST(Incoming, SaturatedCloudQueuesArrivals) {
  QuantumCloud cloud = paper_cloud(3);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  // Five 111-qubit jobs arriving back-to-back into a 400-qubit cloud.
  std::vector<ArrivingJob> trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back({make_workload("qugan_n111"),
                     static_cast<SimTime>(i)});
  }
  const auto stats = run_incoming(trace, cloud, *placer, *alloc);
  int queued = 0;
  for (const auto& s : stats) {
    EXPECT_GE(s.placed_time, s.arrival);
    EXPECT_GT(s.completion_time, s.placed_time);
    if (s.placed_time > s.arrival + 1.0) ++queued;
  }
  EXPECT_GE(queued, 1);  // at least one arrival had to wait for capacity
}

TEST(Incoming, ResourcesRestoredAfterTrace) {
  QuantumCloud cloud = paper_cloud();
  const int before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto trace =
      drain(*make_poisson_source({"ising_n34", "ghz_n127"}, 6, 500.0, 5));
  run_incoming(trace, cloud, *placer, *alloc);
  EXPECT_EQ(cloud.total_free_computing(), before);
}

TEST(Incoming, UnsortedTraceRejected) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(10), 10.0});
  trace.push_back({gen::ghz(10), 5.0});
  EXPECT_THROW(run_incoming(trace, cloud, *placer, *alloc),
               std::logic_error);
}

TEST(Incoming, OversizedJobRejected) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(500), 0.0});
  EXPECT_THROW(run_incoming(trace, cloud, *placer, *alloc),
               std::logic_error);
}

TEST(PoissonTrace, SortedWithRequestedLength) {
  const auto trace =
      drain(*make_poisson_source({"ising_n34"}, 20, 100.0, 9));
  ASSERT_EQ(trace.size(), 20u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  }
  EXPECT_GT(trace.front().arrival, 0.0);
}

TEST(PoissonTrace, MeanGapRoughlyHonoured) {
  const auto trace =
      drain(*make_poisson_source({"ising_n34"}, 400, 50.0, 13));
  const double mean_gap = trace.back().arrival / 400.0;
  EXPECT_NEAR(mean_gap, 50.0, 10.0);
}

TEST(Incoming, AdmissionGateSuppressesRetriesWithoutRelease) {
  // A 2x10-qubit cloud runs at most one 16-qubit job at a time. Four more
  // jobs arrive while the first is running: each arrival used to re-run a
  // placement for *every* queued job; the capacity signature limits
  // arrival-time attempts to the newcomer (nothing was released since the
  // queued jobs last failed). The annealing placer fails before touching
  // the RNG when capacity is short, so the gated run must be bit-identical
  // to the ungated baseline while doing strictly fewer placement calls.
  CloudConfig cfg;
  cfg.num_qpus = 2;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 5;
  cfg.epr_success_prob = 1.0;

  std::vector<ArrivingJob> trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back({gen::ghz(16), static_cast<SimTime>(i)});
  }

  auto run = [&](bool gated) {
    QuantumCloud cloud(cfg, ring_topology(2));
    CountingPlacer placer(make_annealing_placer(300));
    EngineOptions options;
    options.seed = 21;
    options.gated_admission = gated;
    options.gated_allocation = gated;
    auto stats = run_incoming(trace, cloud, placer, *make_cloudqc_allocator(),
                              options);
    return std::pair<std::uint64_t, std::vector<JobStats>>{
        placer.calls(), std::move(stats)};
  };
  const auto [gated_calls, gated_stats] = run(true);
  const auto [ungated_calls, ungated_stats] = run(false);

  EXPECT_LT(gated_calls, ungated_calls);
  ASSERT_EQ(gated_stats.size(), ungated_stats.size());
  for (std::size_t i = 0; i < gated_stats.size(); ++i) {
    EXPECT_EQ(gated_stats[i].placed_time, ungated_stats[i].placed_time);
    EXPECT_EQ(gated_stats[i].completion_time,
              ungated_stats[i].completion_time);
    EXPECT_EQ(gated_stats[i].est_fidelity, ungated_stats[i].est_fidelity);
    EXPECT_GE(gated_stats[i].placed_time, gated_stats[i].arrival);
  }
}

TEST(Incoming, AdmissionGateSkipsWakesThatCannotFit) {
  // Requirement-aware wake rule (ROADMAP 1a): a release only re-attempts
  // queued jobs whose recorded qubit requirement fits the cloud's total
  // free computing capacity. On a 2x10 cloud a queued 19-qubit job used
  // to be re-placed every time a 4-qubit job finished (freeing only 4):
  // each of those attempts was doomed by arithmetic alone. The annealing
  // placer fails before touching the RNG when capacity is short, so the
  // gated run stays bit-identical while doing strictly fewer calls.
  CloudConfig cfg;
  cfg.num_qpus = 2;
  cfg.computing_qubits_per_qpu = 10;
  cfg.comm_qubits_per_qpu = 5;
  cfg.epr_success_prob = 1.0;

  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(16), 0.0});  // fills all but 4 qubits
  trace.push_back({gen::ghz(19), 1.0});  // queues; needs a near-empty cloud
  for (int i = 0; i < 4; ++i) {
    trace.push_back({gen::ghz(4), 2.0 + i});  // churn through the 4 free
  }

  auto run = [&](bool gated) {
    QuantumCloud cloud(cfg, ring_topology(2));
    CountingPlacer placer(make_annealing_placer(300));
    EngineOptions options;
    options.seed = 21;
    options.gated_admission = gated;
    options.gated_allocation = gated;
    auto stats = run_incoming(trace, cloud, placer, *make_cloudqc_allocator(),
                              options);
    return std::pair<std::uint64_t, std::vector<JobStats>>{
        placer.calls(), std::move(stats)};
  };
  const auto [gated_calls, gated_stats] = run(true);
  const auto [ungated_calls, ungated_stats] = run(false);

  EXPECT_LT(gated_calls, ungated_calls);
  ASSERT_EQ(gated_stats.size(), ungated_stats.size());
  for (std::size_t i = 0; i < gated_stats.size(); ++i) {
    EXPECT_EQ(gated_stats[i].placed_time, ungated_stats[i].placed_time);
    EXPECT_EQ(gated_stats[i].completion_time,
              ungated_stats[i].completion_time);
    EXPECT_EQ(gated_stats[i].est_fidelity, ungated_stats[i].est_fidelity);
    EXPECT_GT(gated_stats[i].completion_time, 0.0);
  }
}

TEST(Incoming, ChurnDisplacedArrivalsRequeueAndComplete) {
  for (const ChurnPolicy policy :
       {ChurnPolicy::kRequeue, ChurnPolicy::kMigrate}) {
    SCOPED_TRACE(policy == ChurnPolicy::kRequeue ? "requeue" : "migrate");
    QuantumCloud cloud = paper_cloud(2);
    const int free_before = cloud.total_free_computing();
    const auto placer = make_cloudqc_placer();
    const auto alloc = make_cloudqc_allocator();

    std::vector<ArrivingJob> trace;
    trace.push_back({make_workload("knn_n67"), 0.0});
    trace.push_back({make_workload("qugan_n71"), 0.0});
    trace.push_back({make_workload("qft_n63"), 0.0});
    trace.push_back({make_workload("ising_n66"), 0.0});

    // Half the cloud goes into maintenance just after the first arrivals
    // are admitted: something in flight must be holding QPUs 0..9.
    ChurnSpec churn;
    churn.policy = policy;
    for (int q = 0; q < 10; ++q) churn.windows.push_back({q, 1.0, 3000.0});
    const ChurnPlan plan = build_churn_plan(churn, cloud.num_qpus());

    EngineOptions options;
    options.seed = 9;
    options.churn = &plan;
    const auto stats = run_incoming(trace, cloud, *placer, *alloc, options);

    int restarts = 0;
    for (const auto& s : stats) {
      EXPECT_GT(s.completion_time, 0.0);
      restarts += s.restarts;
    }
    EXPECT_GE(restarts, 1);
    EXPECT_EQ(cloud.total_free_computing(), free_before);
  }
}

TEST(Incoming, PreemptEnabledArrivalEvictsLowerPriority) {
  // A low-priority 250-qubit tenant holds most of the 400-qubit cloud
  // when a high-priority preempt-enabled 250-qubit job arrives. The
  // newcomer's placement fails (150 free), so it evicts the strictly
  // lower-priority holder, which restarts from scratch after it.
  QuantumCloud cloud = paper_cloud(4);
  const int free_before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();

  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(250), 0.0});
  trace.push_back({gen::ghz(250), 1.0});

  EngineOptions options;
  options.seed = 7;
  options.gated_admission = false;  // retry (and preempt) at every release
  options.classes = {JobClass{0, false}, JobClass{2, true}};
  const auto stats = run_incoming(trace, cloud, *placer, *alloc, options);

  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].restarts, 1);
  EXPECT_EQ(stats[1].restarts, 0);
  EXPECT_GT(stats[0].completion_time, 0.0);
  EXPECT_GT(stats[1].completion_time, 0.0);
  // The victim finishes after the preemptor that displaced it.
  EXPECT_GT(stats[0].completion_time, stats[1].completion_time);
  EXPECT_EQ(cloud.total_free_computing(), free_before);
}

TEST(Incoming, ChurnFenceReleasedWhenRunEndsInsideWindow) {
  // QPU 3 goes offline at t = 1 and stays down past the end of the run:
  // its fence must still be lifted when the engine returns.
  QuantumCloud cloud = paper_cloud();
  const int free_before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(30), 0.0});
  trace.push_back({gen::ghz(40), 0.0});
  ChurnSpec churn;
  churn.windows.push_back({3, 1.0, 1e9});
  const ChurnPlan plan = build_churn_plan(churn, cloud.num_qpus());
  EngineOptions options;
  options.churn = &plan;
  const auto stats = run_incoming(trace, cloud, *placer, *alloc, options);
  for (const auto& s : stats) EXPECT_GT(s.completion_time, 0.0);
  EXPECT_EQ(cloud.total_free_computing(), free_before);
}

TEST(Incoming, HigherLoadIncreasesMeanJct) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  auto mean_jct = [&](double gap) {
    QuantumCloud cloud = paper_cloud(11);
    const auto trace = drain(*make_poisson_source(
        {"qugan_n71", "knn_n67", "ising_n66"}, 10, gap, /*seed=*/3));
    const auto stats = run_incoming(trace, cloud, *placer, *alloc, 17);
    double total = 0.0;
    for (const auto& s : stats) total += s.jct();
    return total / static_cast<double>(stats.size());
  };
  // Arrivals every 50 time units pile up; every 50k units they don't.
  EXPECT_GT(mean_jct(50.0), mean_jct(50000.0) * 0.99);
}

}  // namespace
}  // namespace cloudqc
