#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/workloads.hpp"
#include "cloud/churn.hpp"
#include "common/thread_pool.hpp"
#include "core/incoming.hpp"
#include "core/streaming.hpp"
#include "graph/topology.hpp"
#include "sim/network_sim.hpp"
#include "test_doubles.hpp"

namespace cloudqc {
namespace {

QuantumCloud paper_cloud(std::uint64_t seed = 1) {
  CloudConfig cfg;
  Rng rng(seed);
  return QuantumCloud(cfg, rng);
}

/// Small deterministic trace: ghz circuits arriving at a fixed cadence.
std::vector<ArrivingJob> ghz_trace(int jobs, double gap, int width = 30) {
  std::vector<ArrivingJob> trace;
  for (int i = 0; i < jobs; ++i) {
    trace.push_back({gen::ghz(width), static_cast<SimTime>(i) * gap});
  }
  return trace;
}

// With one intake shard and an effectively unbounded pending set, the
// streaming engine IS run_incoming minus the O(jobs) state: same RNG
// discipline, same FIFO + HoL admission, same simulator trajectory (the
// recycled job slots never influence allocator decisions). Folding
// run_incoming's per-job table gives the reference (sketch folds do not
// depend on order), so the whole StreamingMetrics must compare equal.
// Both views read the same EngineOptions, so the second input — migrate
// churn over 16 of the 20 QPUs plus preempt-enabled tenant classes, which
// displaces and preempts running jobs — must fold equal too.
TEST(Streaming, VectorSourceMatchesRunIncoming) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto trace = drain(
      *make_poisson_source({"ising_n34", "vqe_uccsd_n28"}, 25, 120.0, 7));

  StreamingOptions plain;
  plain.seed = 3;
  plain.intake_shards = 1;
  plain.max_pending = 1u << 20;  // never defer: run_incoming never does

  ChurnSpec churn;
  churn.policy = ChurnPolicy::kMigrate;
  for (int q = 0; q < 16; ++q) churn.windows.push_back({q, 1000.0, 2200.0});
  churn.drift_amplitude = 0.1;
  churn.drift_period = 2000.0;
  const ChurnPlan plan = build_churn_plan(churn, paper_cloud().num_qpus());
  StreamingOptions churned = plain;
  churned.churn = &plan;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool preempt = i % 3 == 2;
    churned.classes.push_back(
        JobClass{preempt ? 2 : static_cast<int>(i % 2), preempt});
  }

  for (const StreamingOptions* options : {&plain, &churned}) {
    SCOPED_TRACE(options == &plain ? "plain" : "churn + preempting classes");
    QuantumCloud incoming_cloud = paper_cloud();
    const auto stats =
        run_incoming(trace, incoming_cloud, *placer, *alloc, *options);
    ASSERT_EQ(stats.size(), trace.size());
    StreamingMetrics reference;
    reference.submitted = trace.size();
    int restarts = 0;
    for (const JobStats& s : stats) {
      reference.record_completion(s.jct(), s.est_fidelity, s.completion_time);
      restarts += s.restarts;
    }
    // The second input displaces or preempts running work.
    EXPECT_EQ(restarts > 0, options == &churned);

    QuantumCloud streaming_cloud = paper_cloud();
    const auto source = make_vector_source(trace);
    const StreamingMetrics metrics =
        run_streaming(*source, streaming_cloud, *placer, *alloc, *options);

    EXPECT_EQ(metrics.completed, trace.size());
    EXPECT_EQ(metrics.rejected, 0u);
    // The per-job table holds no queue depths; align the high-water marks
    // so operator== compares everything else bit-exactly (counters,
    // makespan, min/max and every sketch bucket).
    reference.peak_pending = metrics.peak_pending;
    reference.peak_in_flight = metrics.peak_in_flight;
    EXPECT_TRUE(metrics == reference);
  }
}

TEST(Streaming, PoissonSourceMatchesMaterialisedTrace) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const std::vector<std::string> mix = {"ising_n34", "vqe_uccsd_n28"};

  QuantumCloud cloud_a = paper_cloud();
  const auto streamed = make_poisson_source(mix, 20, 150.0, /*seed=*/17);
  StreamingOptions options;
  options.seed = 5;
  const StreamingMetrics from_source =
      run_streaming(*streamed, cloud_a, *placer, *alloc, options);

  QuantumCloud cloud_b = paper_cloud();
  const auto materialised = make_vector_source(
      drain(*make_poisson_source(mix, 20, 150.0, /*seed=*/17)));
  const StreamingMetrics from_vector =
      run_streaming(*materialised, cloud_b, *placer, *alloc, options);

  EXPECT_TRUE(from_source == from_vector);
  EXPECT_EQ(from_source.completed, 20u);
}

TEST(Streaming, BurstSourceMatchesMaterialisedTrace) {
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const std::vector<std::string> mix = {"ising_n34"};

  QuantumCloud cloud_a = paper_cloud();
  const auto streamed =
      make_burst_source(mix, 18, /*burst_size=*/5, 400.0, /*seed=*/29);
  StreamingOptions options;
  options.seed = 5;
  const StreamingMetrics from_source =
      run_streaming(*streamed, cloud_a, *placer, *alloc, options);

  QuantumCloud cloud_b = paper_cloud();
  const auto materialised = make_vector_source(drain(
      *make_burst_source(mix, 18, /*burst_size=*/5, 400.0, /*seed=*/29)));
  const StreamingMetrics from_vector =
      run_streaming(*materialised, cloud_b, *placer, *alloc, options);

  EXPECT_TRUE(from_source == from_vector);
}

TEST(Streaming, DeferBackpressureBoundsPendingAndCompletesEverything) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  // 12 simultaneous arrivals against a pending bound of 2: intake must
  // stop pulling (never drop) and drain the stream completely.
  const auto source = make_vector_source(ghz_trace(12, 0.0));
  StreamingOptions options;
  options.max_pending = 2;
  options.backpressure = StreamingBackpressure::kDefer;
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, options);
  EXPECT_EQ(metrics.submitted, 12u);
  EXPECT_EQ(metrics.completed, 12u);
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_LE(metrics.peak_pending, 2u);
}

TEST(Streaming, RejectBackpressureDropsOverflowAndCountsIt) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source = make_vector_source(ghz_trace(12, 0.0));
  StreamingOptions options;
  options.max_pending = 1;
  options.backpressure = StreamingBackpressure::kReject;
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, options);
  EXPECT_EQ(metrics.submitted, 12u);
  EXPECT_GT(metrics.rejected, 0u);
  EXPECT_EQ(metrics.completed + metrics.rejected, metrics.submitted);
  EXPECT_EQ(metrics.rejected_oversize, 0u);
  EXPECT_EQ(metrics.jct.count(), metrics.completed);

  // A per-job table needs a row for every job, so the per-job view
  // refuses a policy that drops some.
  QuantumCloud incoming_cloud = paper_cloud();
  EXPECT_THROW(run_incoming(ghz_trace(12, 0.0), incoming_cloud, *placer,
                            *alloc, options),
               std::logic_error);
}

// Classes are indexed by submission order; a stream that outruns them is
// refused, not read past the end, and the cloud is restored.
TEST(Streaming, ClassesMustCoverEverySubmittedJob) {
  QuantumCloud cloud = paper_cloud();
  const int free_before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source = make_vector_source(ghz_trace(3, 10.0));
  StreamingOptions options;
  options.classes = {JobClass{}, JobClass{}};
  EXPECT_THROW(run_streaming(*source, cloud, *placer, *alloc, options),
               std::logic_error);
  EXPECT_EQ(cloud.total_free_computing(), free_before);
}

TEST(Streaming, OversizeJobIsSkippedNotFatal) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const int too_big = cloud.total_computing_capacity() + 1;
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(30), 0.0});
  trace.push_back({gen::ghz(too_big), 1.0});  // batch engines would throw
  trace.push_back({gen::ghz(30), 2.0});
  const auto source = make_vector_source(std::move(trace));
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, {});
  EXPECT_EQ(metrics.submitted, 3u);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.rejected_oversize, 1u);
}

// A job that fits total capacity but fails even a forced attempt on an idle
// cloud is dropped and counted as rejected (not oversize); the stream goes
// on and every other job completes.
TEST(Streaming, UnadmittableJobIsDroppedNotFatal) {
  QuantumCloud cloud = paper_cloud();
  const int free_before = cloud.total_free_computing();
  const testing::RefusingPlacer placer(make_cloudqc_placer(), "ghz_n40");
  const auto alloc = make_cloudqc_allocator();
  std::vector<ArrivingJob> trace;
  trace.push_back({gen::ghz(30), 0.0});
  trace.push_back({gen::ghz(40), 1.0});  // refused on every attempt
  trace.push_back({gen::ghz(30), 2.0});
  trace.push_back({gen::ghz(30), 5000.0});
  const auto source = make_vector_source(std::move(trace));
  StreamingOptions options;
  options.intake_shards = 2;
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, placer, *alloc, options);
  EXPECT_EQ(metrics.submitted, 4u);
  EXPECT_EQ(metrics.completed, 3u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.rejected_oversize, 0u);
  EXPECT_EQ(metrics.submitted, metrics.completed + metrics.rejected);
  EXPECT_EQ(metrics.jct.count(), 3u);
  EXPECT_EQ(cloud.total_free_computing(), free_before);
}

TEST(Streaming, MetricsInvariantAcrossWorkerCounts) {
  const auto alloc = make_cloudqc_allocator();
  std::vector<StreamingMetrics> results;
  for (const int workers : {1, 2, 8}) {
    QuantumCloud cloud = paper_cloud();
    std::unique_ptr<ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
    const auto racer = make_default_racing_placer({}, pool.get());
    const auto source =
        make_poisson_source({"ising_n34"}, 10, 200.0, /*seed=*/17);
    StreamingOptions options;
    options.seed = 5;
    options.intake_shards = 4;
    results.push_back(run_streaming(*source, cloud, *racer, *alloc, options));
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[1] == results[0]);
  EXPECT_TRUE(results[2] == results[0]);
  EXPECT_EQ(results[0].completed, 10u);
}

TEST(Streaming, CloudResourcesRestoredAfterDrain) {
  QuantumCloud cloud = paper_cloud();
  const int before = cloud.total_free_computing();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source = make_poisson_source({"ising_n34"}, 8, 100.0, 11);
  run_streaming(*source, cloud, *placer, *alloc, {});
  EXPECT_EQ(cloud.total_free_computing(), before);
}

TEST(Streaming, CheckpointCallbackSeesMonotoneProgress) {
  QuantumCloud cloud = paper_cloud();
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source = make_vector_source(ghz_trace(9, 50.0));
  std::vector<std::uint64_t> completions;
  StreamingOptions options;
  options.checkpoint_interval = 3;
  options.on_checkpoint = [&](const StreamingProgress& p) {
    completions.push_back(p.completed);
  };
  run_streaming(*source, cloud, *placer, *alloc, options);
  ASSERT_EQ(completions.size(), 3u);  // fired at 3, 6, 9 completions
  EXPECT_EQ(completions[0], 3u);
  EXPECT_EQ(completions[1], 6u);
  EXPECT_EQ(completions[2], 9u);
}

// ---------------------------------------------------- simulator recycling

QuantumCloud ring_cloud(int qpus) {
  CloudConfig cfg;
  cfg.num_qpus = qpus;
  cfg.computing_qubits_per_qpu = 100;
  return QuantumCloud(cfg, ring_topology(qpus));
}

TEST(Streaming, SimulatorRecyclesCompletedJobSlots) {
  const auto cloud = ring_cloud(2);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  c.cx(0, 1);
  c.measure(0);
  NetworkSimulator sim(cloud, *alloc, Rng(1));
  sim.set_recycle_completed(true);
  for (int round = 0; round < 5; ++round) {
    const int id = sim.add_job(c, {0, 1});
    EXPECT_EQ(id, 0);  // the freed slot is reused every round
    EXPECT_EQ(sim.live_jobs(), 1u);
    ASSERT_TRUE(sim.run_until_next_completion().has_value());
    EXPECT_EQ(sim.live_jobs(), 0u);
  }
  EXPECT_EQ(sim.num_jobs(), 5u);  // admissions counted, state not retained
}

TEST(Streaming, RecyclingDoesNotChangeTrajectories) {
  const auto cloud = ring_cloud(3);
  const auto alloc = make_cloudqc_allocator();
  Circuit c("t", 2);
  for (int i = 0; i < 4; ++i) c.cx(0, 1);

  auto completion_times = [&](bool recycle) {
    NetworkSimulator sim(cloud, *alloc, Rng(9));
    sim.set_recycle_completed(recycle);
    std::vector<SimTime> times;
    // Two overlapping jobs, then a third after both complete.
    sim.add_job(c, {0, 1});
    sim.add_job(c, {1, 2});
    times.push_back(sim.run_until_next_completion()->time);
    times.push_back(sim.run_until_next_completion()->time);
    sim.add_job(c, {0, 2});
    times.push_back(sim.run_until_next_completion()->time);
    return times;
  };

  const auto recycled = completion_times(true);
  const auto retained = completion_times(false);
  ASSERT_EQ(recycled.size(), retained.size());
  for (std::size_t i = 0; i < recycled.size(); ++i) {
    EXPECT_DOUBLE_EQ(recycled[i], retained[i]);
  }
}

}  // namespace
}  // namespace cloudqc
