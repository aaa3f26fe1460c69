// Scenario engine (core/scenario.hpp): parser round-trip and rejection
// behaviour, and the central equivalence contract — run_scenario() on a
// committed spec file is bit-identical to hand-wiring the same engine
// calls in C++ (one multi-tenant batch spec, one network-sim spec).
//
// CLOUDQC_SCENARIO_DIR (a compile definition set in CMakeLists.txt)
// points at the repo's scenarios/ directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include "circuit/workloads.hpp"
#include "common/check.hpp"
#include "core/incoming.hpp"
#include "metrics/quantile_sketch.hpp"
#include "metrics/stats.hpp"
#include "core/multi_tenant.hpp"
#include "core/scenario.hpp"
#include "core/streaming.hpp"
#include "graph/topology.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"
#include "schedule/routing.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {
namespace {

std::string scenario_path(const std::string& file) {
  return std::string(CLOUDQC_SCENARIO_DIR) + "/" + file;
}

TEST(ScenarioParserTest, ParsesSectionsCommentsAndLists) {
  const char* text =
      "# full-line comment\n"
      "[cloud]\n"
      "topology = dumbbell   ; trailing comment\n"
      "num_qpus = 14\n"
      "bridge_width = 3\n"
      "capacity_profile = skewed\n"
      "\n"
      "[workload]\n"
      "source = generator\n"
      "circuits = ising_n34, qaoa_n50\n"
      "circuits = vqe_uccsd_n28\n"  // repeated key appends
      "\n"
      "[engine]\n"
      "mode = multi_tenant\n"
      "fifo = true\n"
      "seed = 77\n";
  const ScenarioSpec spec = parse_scenario(text, "t");
  EXPECT_EQ(spec.cloud.family, TopologyFamily::kDumbbell);
  EXPECT_EQ(spec.cloud.num_qpus, 14);
  EXPECT_EQ(spec.cloud.bridge_width, 3);
  EXPECT_EQ(spec.cloud.profile, CapacityProfile::kSkewed);
  ASSERT_EQ(spec.workload.circuits.size(), 3u);
  EXPECT_EQ(spec.workload.circuits[2], "vqe_uccsd_n28");
  EXPECT_EQ(spec.engine.mode, EngineMode::kMultiTenant);
  EXPECT_TRUE(spec.engine.fifo);
  EXPECT_EQ(spec.engine.seed, 77u);
}

TEST(ScenarioParserTest, RejectsUnknownKeysSectionsAndValues) {
  // Unknown key (with its line number in the message).
  try {
    parse_scenario("[cloud]\ntopology = ring\nnum_qpu = 5\n");
    FAIL() << "unknown key accepted";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("num_qpu"), std::string::npos);
  }
  EXPECT_THROW(parse_scenario("[clouds]\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("topology = ring\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("[cloud]\ntopology = moebius\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario("[cloud]\nnum_qpus = twenty\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario("[engine]\nfifo = maybe\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("[cloud]\njust a line\n"), ScenarioError);
  // Out-of-int-range values are rejected, never silently wrapped
  // (4294967316 == 2^32 + 20 would truncate to a 20-QPU cloud).
  EXPECT_THROW(parse_scenario("[cloud]\nnum_qpus = 4294967316\n"),
               ScenarioError);
}

TEST(ScenarioParserTest, RejectsInconsistentSpecs) {
  // qasm source without files.
  EXPECT_THROW(parse_scenario("[workload]\nsource = qasm\n"), ScenarioError);
  // generator source with no circuits (the default list is empty).
  EXPECT_THROW(parse_scenario("[workload]\nsource = generator\n"),
               ScenarioError);
  // A router outside the network-sim engine is loud, not ignored.
  EXPECT_THROW(
      parse_scenario("[workload]\ncircuits = ising_n34\n"
                     "[engine]\nmode = multi_tenant\nrouter = shortest\n"),
      ScenarioError);
  EXPECT_THROW(
      parse_scenario("[workload]\ncircuits = ising_n34\n"
                     "[engine]\nworkers = 0\n"),
      ScenarioError);
}

TEST(ScenarioParserTest, RouterKindsRoundTrip) {
  // Every router name parses under the network-sim engine and survives the
  // emit/reparse cycle — including the routed-engine pair "masked" and
  // "frontier" (same policy, per-op vs batched implementation).
  const std::pair<const char*, RouterKind> kinds[] = {
      {"none", RouterKind::kNone},
      {"shortest", RouterKind::kShortest},
      {"congestion", RouterKind::kCongestion},
      {"masked", RouterKind::kMasked},
      {"frontier", RouterKind::kFrontier},
  };
  for (const auto& [name, kind] : kinds) {
    const std::string text = std::string("[workload]\ncircuits = ising_n34\n") +
                             "[engine]\nmode = network_sim\nrouter = " + name +
                             "\n";
    const ScenarioSpec spec = parse_scenario(text, "r");
    EXPECT_EQ(spec.engine.router, kind) << name;
    const std::string ini = to_ini(spec);
    EXPECT_NE(ini.find(std::string("router = ") + name), std::string::npos)
        << ini;
    EXPECT_EQ(parse_scenario(ini, "r").engine.router, kind) << name;
  }
  // The new kinds are as loud as the old ones outside network_sim.
  for (const char* mode : {"batch", "multi_tenant", "streaming"}) {
    EXPECT_THROW(parse_scenario(std::string("[workload]\ncircuits = "
                                            "ising_n34\n[engine]\nmode = ") +
                                mode + "\nrouter = frontier\n"),
                 ScenarioError)
        << mode;
  }
}

TEST(ScenarioParserTest, ParsesStreamingEngineKeys) {
  const char* text =
      "[workload]\n"
      "circuits = ising_n34\n"
      "[engine]\n"
      "mode = streaming\n"
      "max_pending = 32\n"
      "backpressure = reject\n"
      "intake_shards = 2\n";
  const ScenarioSpec spec = parse_scenario(text, "s");
  EXPECT_EQ(spec.engine.mode, EngineMode::kStreaming);
  EXPECT_EQ(spec.engine.max_pending, 32);
  EXPECT_EQ(spec.engine.backpressure, StreamingBackpressure::kReject);
  EXPECT_EQ(spec.engine.intake_shards, 2);

  // The streaming knobs survive the emit/reparse cycle.
  const std::string ini = to_ini(spec);
  EXPECT_NE(ini.find("mode = streaming"), std::string::npos);
  EXPECT_NE(ini.find("backpressure = reject"), std::string::npos);
  const ScenarioSpec reparsed = parse_scenario(ini, "s");
  EXPECT_EQ(to_ini(reparsed), ini);
  EXPECT_EQ(reparsed.engine.max_pending, 32);
  EXPECT_EQ(reparsed.engine.intake_shards, 2);
}

TEST(ScenarioParserTest, RejectsInvalidStreamingKnobs) {
  const std::string prefix =
      "[workload]\ncircuits = ising_n34\n[engine]\nmode = streaming\n";
  EXPECT_THROW(parse_scenario(prefix + "max_pending = 0\n"), ScenarioError);
  EXPECT_THROW(parse_scenario(prefix + "intake_shards = 0\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(prefix + "backpressure = drop_oldest\n"),
               ScenarioError);
}

TEST(ScenarioParserTest, IniRoundTripIsStable) {
  ScenarioSpec spec;
  spec.name = "rt";
  spec.cloud.family = TopologyFamily::kTorus;
  spec.cloud.num_qpus = 12;
  spec.cloud.rows = 3;
  spec.cloud.cols = 4;
  spec.cloud.topology_seed = 99;
  spec.cloud.profile = CapacityProfile::kBimodal;
  spec.cloud.config.computing_qubits_per_qpu = 16;
  spec.cloud.config.comm_qubits_per_qpu = 4;
  spec.cloud.config.link_probability = 0.35;
  spec.cloud.config.epr_success_prob = 0.125;
  spec.cloud.config.purification_level = 1;
  spec.workload.source = WorkloadSource::kTrace;
  spec.workload.circuits = {"ising_n34", "qaoa_n50"};
  spec.workload.trace = TraceShape::kBurst;
  spec.workload.trace_jobs = 9;
  spec.workload.trace_mean_gap = 12.5;
  spec.workload.trace_burst_size = 3;
  spec.workload.trace_seed = 21;
  spec.engine.mode = EngineMode::kIncoming;
  spec.engine.placer = PlacerKind::kAnnealing;
  spec.engine.allocator = AllocatorKind::kAverage;
  spec.engine.seed = 77;
  spec.engine.gated_admission = false;
  spec.engine.workers = 2;

  const std::string ini = to_ini(spec);
  const ScenarioSpec reparsed = parse_scenario(ini, "rt");
  EXPECT_EQ(to_ini(reparsed), ini);
  EXPECT_EQ(reparsed.cloud.config.link_probability, 0.35);
  EXPECT_EQ(reparsed.workload.trace_mean_gap, 12.5);
  EXPECT_EQ(reparsed.engine.placer, PlacerKind::kAnnealing);
}

// Every engine applies the same oversize rule: a job larger than the
// cloud's total capacity throws, network_sim included.
TEST(ScenarioTest, OversizeJobThrowsInEveryEngine) {
  for (const char* mode : {"batch", "multi_tenant", "incoming",
                           "network_sim"}) {
    const ScenarioSpec spec = parse_scenario(
        std::string("[cloud]\ntopology = ring\nnum_qpus = 4\n"
                    "[workload]\ncircuits = ising_n34, ghz_n127\n"
                    "[engine]\nmode = ") +
        mode + "\n");
    EXPECT_THROW(run_scenario(spec), std::logic_error) << mode;
  }
}

TEST(ScenarioTest, BurstTraceShape) {
  const auto trace =
      drain(*make_burst_source({"ising_n34"}, 10, 4, 100.0, /*seed=*/5));
  ASSERT_EQ(trace.size(), 10u);
  // Groups of 4 share one arrival instant; groups strictly later.
  EXPECT_EQ(trace[0].arrival, trace[3].arrival);
  EXPECT_EQ(trace[4].arrival, trace[7].arrival);
  EXPECT_LT(trace[3].arrival, trace[4].arrival);
  EXPECT_LT(trace[7].arrival, trace[8].arrival);
  EXPECT_EQ(trace[8].arrival, trace[9].arrival);  // partial last burst
  EXPECT_GT(trace[0].arrival, 0.0);
}

// The acceptance contract: scenarios/grid_multitenant.ini, executed by
// the scenario engine, bit-matches the equivalent hand-wired run_batch()
// setup — same cloud, same jobs, same options, no scenario layer.
TEST(ScenarioTest, GridMultitenantSpecMatchesHandWiredBatch) {
  const ScenarioSpec spec =
      load_scenario_file(scenario_path("grid_multitenant.ini"));
  ASSERT_EQ(spec.engine.mode, EngineMode::kMultiTenant);
  const ScenarioResult result = run_scenario(spec);

  // Hand-wired equivalent, built without cloud/topologies.hpp.
  CloudConfig cfg;  // paper defaults: 20 QPUs, 20 + 5 qubits
  QuantumCloud cloud(cfg, grid_topology(4, 5));
  std::vector<Circuit> jobs;
  for (const auto& name : spec.workload.circuits) {
    jobs.push_back(make_workload(name));
  }
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  MultiTenantOptions options;
  options.seed = 1;
  const auto stats = run_batch(jobs, cloud, *placer, *alloc, options);

  ASSERT_EQ(result.jobs.size(), stats.size());
  double makespan = 0.0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    EXPECT_TRUE(result.jobs[i].placed);
    EXPECT_EQ(result.jobs[i].name, stats[i].name);
    EXPECT_EQ(result.jobs[i].placed_time, stats[i].placed_time);
    EXPECT_EQ(result.jobs[i].completion_time, stats[i].completion_time);
    EXPECT_EQ(result.jobs[i].remote_ops, stats[i].remote_ops);
    EXPECT_EQ(result.jobs[i].qpus_used, stats[i].qpus_used);
    EXPECT_EQ(result.jobs[i].est_fidelity, stats[i].est_fidelity);
    makespan = std::max(makespan, stats[i].completion_time);
  }
  EXPECT_EQ(result.makespan, makespan);
  EXPECT_GE(result.placement_calls, stats.size());
}

// Same contract for the routed engine on a heterogeneous (bimodal torus)
// cloud. Every job fits at t = 0, so the lifecycle core's draws match a
// bare simulator: Rng(seed), the simulator on rng.fork(), then one
// placer.place per job in list order.
TEST(ScenarioTest, TorusNetworkSimSpecMatchesHandWiredSimulator) {
  const ScenarioSpec spec =
      load_scenario_file(scenario_path("torus_bimodal_netsim.ini"));
  ASSERT_EQ(spec.engine.mode, EngineMode::kNetworkSim);
  const ScenarioResult result = run_scenario(spec);

  QuantumCloud cloud = build_cloud(spec.cloud);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto router = make_shortest_path_router();
  Rng rng(spec.engine.seed);
  NetworkSimulator sim(cloud, *alloc, rng.fork(), router.get());
  std::vector<double> completion(spec.workload.circuits.size(), 0.0);
  std::vector<double> fidelity(spec.workload.circuits.size(), 1.0);
  // The simulator keeps pointers to admitted circuits: they must outlive
  // the run, so materialise them before the admission loop.
  std::vector<Circuit> circuits;
  for (const auto& name : spec.workload.circuits) {
    circuits.push_back(make_workload(name));
  }
  for (const Circuit& circuit : circuits) {
    const auto placement = placer->place(circuit, cloud, rng);
    ASSERT_TRUE(placement.has_value()) << circuit.name();
    ASSERT_TRUE(cloud.try_reserve(placement->qubits_per_qpu));
    sim.add_job(circuit, placement->qubit_to_qpu);
  }
  for (const auto& done : sim.run_to_completion()) {
    const auto idx = static_cast<std::size_t>(done.job);
    completion[idx] = done.time;
    fidelity[idx] = done.est_fidelity;
  }

  ASSERT_EQ(result.jobs.size(), completion.size());
  for (std::size_t i = 0; i < completion.size(); ++i) {
    EXPECT_TRUE(result.jobs[i].placed);
    EXPECT_EQ(result.jobs[i].completion_time, completion[i]);
    EXPECT_EQ(result.jobs[i].est_fidelity, fidelity[i]);
  }
  EXPECT_EQ(result.events_processed, sim.num_events_processed());
  EXPECT_EQ(result.allocation_rounds, sim.num_allocation_rounds());
  EXPECT_EQ(result.placement_calls, result.jobs.size());
}

// A network_sim job that does not fit the capacity left at t = 0 waits for
// capacity like any shared-cloud job: on a ring of 4 QPUs (80 computing
// qubits) two ising_n34 leave 12 free, so qft_n29 is admitted at the first
// completion. Every record equals the FIFO batch engine with the same
// router.
TEST(ScenarioTest, NetworkSimQueuesJobsThatDoNotFitAtTimeZero) {
  const ScenarioSpec spec = parse_scenario(
      "[cloud]\ntopology = ring\nnum_qpus = 4\n"
      "[workload]\ncircuits = ising_n34, ising_n34, qft_n29\n"
      "[engine]\nmode = network_sim\nrouter = masked\n");
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.jobs.size(), 3u);
  for (const ScenarioJobResult& job : result.jobs) {
    EXPECT_TRUE(job.placed) << job.name;
  }
  EXPECT_EQ(result.jobs[2].placed_time,
            std::min(result.jobs[0].completion_time,
                     result.jobs[1].completion_time));
  EXPECT_GT(result.jobs[2].placed_time, 0.0);

  QuantumCloud cloud = build_cloud(spec.cloud);
  std::vector<Circuit> jobs;
  for (const auto& name : spec.workload.circuits) {
    jobs.push_back(make_workload(name));
  }
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto router = make_masked_shortest_router();
  MultiTenantOptions options;
  options.fifo = true;
  options.router = router.get();
  const auto stats = run_batch(jobs, cloud, *placer, *alloc, options);
  ASSERT_EQ(stats.size(), result.jobs.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const JobStats& got = result.jobs[i];
    EXPECT_EQ(got.name, stats[i].name);
    EXPECT_EQ(got.arrival, stats[i].arrival);
    EXPECT_EQ(got.placed_time, stats[i].placed_time);
    EXPECT_EQ(got.completion_time, stats[i].completion_time);
    EXPECT_EQ(got.remote_ops, stats[i].remote_ops);
    EXPECT_EQ(got.comm_cost, stats[i].comm_cost);
    EXPECT_EQ(got.qpus_used, stats[i].qpus_used);
    EXPECT_EQ(got.est_fidelity, stats[i].est_fidelity);
    EXPECT_EQ(got.restarts, stats[i].restarts);
  }
}

// Same contract for the streaming engine: the mode=streaming smoke spec
// is bit-identical to hand-wiring make_poisson_source + run_streaming
// with the spec's knobs. Streaming results carry no per-job table, so the
// comparison is over the aggregate record (counters, makespan, means and
// sketch quantiles) — which is exactly what the golden file freezes.
TEST(ScenarioTest, StreamingSmokeSpecMatchesHandWiredRun) {
  const ScenarioSpec spec =
      load_scenario_file(scenario_path("streaming_smoke.ini"));
  ASSERT_EQ(spec.engine.mode, EngineMode::kStreaming);
  const ScenarioResult result = run_scenario(spec);
  EXPECT_TRUE(result.jobs.empty());  // per-job state was freed in flight

  QuantumCloud cloud = build_cloud(spec.cloud);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  const auto source =
      make_poisson_source(spec.workload.circuits, spec.workload.trace_jobs,
                          spec.workload.trace_mean_gap,
                          spec.workload.trace_seed);
  StreamingOptions options;
  options.seed = spec.engine.seed;
  options.gated_admission = spec.engine.gated_admission;
  options.gated_allocation = spec.engine.gated_allocation;
  options.max_pending = static_cast<std::size_t>(spec.engine.max_pending);
  options.backpressure = spec.engine.backpressure;
  options.intake_shards = spec.engine.intake_shards;
  const StreamingMetrics metrics =
      run_streaming(*source, cloud, *placer, *alloc, options);

  EXPECT_EQ(result.stream_submitted, metrics.submitted);
  EXPECT_EQ(result.stream_completed, metrics.completed);
  EXPECT_EQ(result.stream_rejected, metrics.rejected);
  EXPECT_EQ(result.stream_peak_pending, metrics.peak_pending);
  EXPECT_EQ(result.stream_peak_in_flight, metrics.peak_in_flight);
  EXPECT_EQ(result.makespan, metrics.makespan);
  EXPECT_EQ(result.mean_jct, metrics.jct.mean());
  EXPECT_EQ(result.mean_fidelity, metrics.fidelity.mean());
  EXPECT_EQ(result.jct_p50, metrics.jct_p50());
  EXPECT_EQ(result.jct_p95, metrics.jct_p95());
  EXPECT_EQ(result.jct_p99, metrics.jct_p99());
  EXPECT_EQ(result.fidelity_p50, metrics.fidelity_p50());
  EXPECT_EQ(result.fidelity_p95, metrics.fidelity_p95());
  EXPECT_EQ(result.fidelity_p99, metrics.fidelity_p99());
  EXPECT_EQ(metrics.completed, static_cast<std::uint64_t>(
                                   spec.workload.trace_jobs));
}

TEST(ScenarioTest, BatchEngineMetricsAreWorkerCountInvariant) {
  ScenarioSpec spec;
  spec.name = "workers";
  spec.cloud.family = TopologyFamily::kGrid;
  spec.workload.circuits = {"ising_n34", "vqe_uccsd_n28", "qugan_n39",
                            "qaoa_n50"};
  spec.engine.mode = EngineMode::kBatch;
  spec.engine.seed = 9;
  spec.engine.workers = 1;
  const ScenarioResult serial = run_scenario(spec);
  spec.engine.workers = 4;
  const ScenarioResult parallel = run_scenario(spec);
  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].completion_time,
              parallel.jobs[i].completion_time);
    EXPECT_EQ(serial.jobs[i].est_fidelity, parallel.jobs[i].est_fidelity);
    EXPECT_EQ(serial.jobs[i].remote_ops, parallel.jobs[i].remote_ops);
  }
  EXPECT_EQ(serial.makespan, parallel.makespan);
  EXPECT_EQ(serial.mean_jct, parallel.mean_jct);
}

TEST(ScenarioTest, QasmQuickstartResolvesRelativePaths) {
  const ScenarioSpec spec =
      load_scenario_file(scenario_path("qasm_line_quickstart.ini"));
  ASSERT_EQ(spec.workload.qasm_files.size(), 2u);
  // Paths were rebased onto the spec file's directory.
  EXPECT_NE(spec.workload.qasm_files[0].find("scenarios/"),
            std::string::npos);
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].name, "ghz8");
  EXPECT_EQ(result.jobs[1].name, "ripple4");
  EXPECT_TRUE(result.jobs[0].placed);
  EXPECT_TRUE(result.jobs[1].placed);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(ScenarioTest, WriteBenchJsonEmitsArtifactFormat) {
  ScenarioSpec spec;
  spec.name = "json check";  // exercises filename sanitisation
  spec.cloud.num_qpus = 6;
  spec.cloud.family = TopologyFamily::kRing;
  spec.cloud.config.computing_qubits_per_qpu = 8;
  spec.workload.circuits = {"vqe_uccsd_n28"};
  spec.engine.mode = EngineMode::kBatch;
  const ScenarioResult result = run_scenario(spec);
  const std::string path = write_bench_json(result, ::testing::TempDir());
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_scenario_json_check.json"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"bench\": \"scenario_json_check\""),
            std::string::npos);
  EXPECT_NE(content.str().find("\"engine\": \"batch\""), std::string::npos);
  EXPECT_NE(content.str().find("\"makespan\": "), std::string::npos);
  EXPECT_NE(content.str().find("\"placement_calls\": "), std::string::npos);
  // Non-streaming artifacts carry no streaming block: existing goldens and
  // bench JSONs stay byte-identical to the pre-streaming format.
  EXPECT_EQ(content.str().find("\"stream_submitted\""), std::string::npos);
}

TEST(ScenarioTest, GoldenJsonRecordsStreamingAggregates) {
  ScenarioSpec spec;
  spec.name = "golden_stream";
  spec.cloud.num_qpus = 6;
  spec.cloud.family = TopologyFamily::kRing;
  spec.workload.circuits = {"ising_n34", "vqe_uccsd_n28"};
  spec.engine.mode = EngineMode::kStreaming;
  spec.engine.seed = 4;
  const ScenarioResult result = run_scenario(spec);
  const std::string path = write_golden_json(result, ::testing::TempDir());
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"engine\": \"streaming\""),
            std::string::npos);
  EXPECT_NE(content.str().find("\"stream_submitted\": 2"),
            std::string::npos);
  EXPECT_NE(content.str().find("\"jct_p99\": "), std::string::npos);
  EXPECT_NE(content.str().find("\"fidelity_p50\": "), std::string::npos);
  // The per-job table is empty by design for streaming runs.
  EXPECT_NE(content.str().find("\"jobs\": [\n  ]"), std::string::npos);
  EXPECT_NE(content.str().find("\"num_jobs\": 0"), std::string::npos);
}

TEST(ScenarioParserTest, ParsesChurnTenantAndSweepSections) {
  const char* text =
      "[workload]\n"
      "circuits = ising_n34, qft_n29\n"
      "[engine]\n"
      "mode = multi_tenant\n"
      "[churn]\n"
      "policy = migrate\n"
      "window = 0:10:50\n"
      "window = 3:100:200\n"
      "drift_amplitude = 0.2\n"
      "drift_period = 500\n"
      "[tenant.gold]\n"
      "priority = 2\n"
      "slo_jct = 4000\n"
      "preempt = true\n"
      "[tenant.free]\n"
      "weight = 2.5\n"
      "[sweep]\n"
      "engine.seed = 1..3\n"
      "engine.fifo = true, false\n";
  const ScenarioSpec spec = parse_scenario(text, "t");
  EXPECT_EQ(spec.churn.policy, ChurnPolicy::kMigrate);
  ASSERT_EQ(spec.churn.windows.size(), 2u);
  EXPECT_EQ(spec.churn.windows[1].qpu, 3);
  EXPECT_DOUBLE_EQ(spec.churn.windows[1].start, 100.0);
  EXPECT_DOUBLE_EQ(spec.churn.windows[1].end, 200.0);
  EXPECT_DOUBLE_EQ(spec.churn.drift_amplitude, 0.2);
  EXPECT_DOUBLE_EQ(spec.churn.drift_period, 500.0);
  ASSERT_EQ(spec.tenants.size(), 2u);
  EXPECT_EQ(spec.tenants[0].name, "gold");
  EXPECT_EQ(spec.tenants[0].priority, 2);
  EXPECT_TRUE(spec.tenants[0].preempt);
  EXPECT_DOUBLE_EQ(spec.tenants[0].slo_jct, 4000.0);
  EXPECT_EQ(spec.tenants[1].name, "free");
  EXPECT_DOUBLE_EQ(spec.tenants[1].weight, 2.5);
  ASSERT_EQ(spec.sweep.size(), 2u);
  EXPECT_EQ(spec.sweep[0].key, "engine.seed");
  // Integer ranges expand at parse time, so to_ini round-trips to the
  // explicit list.
  EXPECT_EQ(spec.sweep[0].values,
            (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(spec.sweep[1].values,
            (std::vector<std::string>{"true", "false"}));

  const std::string ini = to_ini(spec);
  EXPECT_EQ(to_ini(parse_scenario(ini, "t")), ini);
}

TEST(ScenarioParserTest, RejectsInvalidChurnTenantSweep) {
  const std::string base = "[workload]\ncircuits = ising_n34\n";
  // Churn and tenants are queue-engine concepts; batch mode has neither a
  // shared cloud to maintain nor an admission order to prioritise.
  EXPECT_THROW(parse_scenario(base +
                              "[engine]\nmode = batch\n"
                              "[churn]\nwindow = 0:1:2\n"),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario(base + "[engine]\nmode = batch\n[tenant.a]\n"),
      ScenarioError);
  // Malformed windows and out-of-range drift.
  EXPECT_THROW(parse_scenario(base + "[churn]\nwindow = 0:10\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[churn]\nwindow = 0:50:10\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base +
                              "[churn]\nwindow = 0:1:2\n"
                              "drift_amplitude = 1.0\n"),
               ScenarioError);
  // Tenant naming and weights.
  EXPECT_THROW(parse_scenario(base + "[tenant.bad name]\n"), ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[tenant.]\n"), ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[tenant.a]\n[tenant.a]\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[tenant.a]\nweight = 0\n"),
               ScenarioError);
  // Sweep axes: unknown section, duplicate axis, list-valued key, a value
  // the target key rejects, and an oversized grid.
  EXPECT_THROW(parse_scenario(base + "[sweep]\nrouting.hops = 1, 2\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base +
                              "[sweep]\nengine.seed = 1\n"
                              "engine.seed = 2\n"),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario(base + "[sweep]\nworkload.circuits = qft_n29\n"),
      ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[sweep]\nengine.mode = warp\n"),
               ScenarioError);
  // A bad value is reported at its own [sweep] line.
  try {
    parse_scenario(base + "[sweep]\nengine.seed = 1, x\n");
    FAIL() << "bad sweep value accepted";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_EQ(what.find("line 0"), std::string::npos) << what;
    EXPECT_NE(what.find("engine.seed"), std::string::npos) << what;
  }
  // A programmatic spec has no line to name.
  ScenarioSpec programmatic = parse_scenario(base);
  programmatic.sweep.push_back(SweepAxis{"engine.seed", {"x"}});
  try {
    run_scenario(programmatic);
    FAIL() << "bad sweep value accepted";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("line"), std::string::npos) << what;
    EXPECT_NE(what.find("engine.seed"), std::string::npos) << what;
  }
  EXPECT_THROW(parse_scenario(base + "[sweep]\nengine.seed = 1..2000\n"),
               ScenarioError);
  // A huge range is refused before it is materialised.
  EXPECT_THROW(
      parse_scenario(base + "[sweep]\nengine.seed = 0..2000000000\n"),
      ScenarioError);
  // Non-finite numbers are refused at parse time; each would otherwise
  // fail inside an engine or silently switch a feature off.
  EXPECT_THROW(parse_scenario(base + "trace_mean_gap = inf\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base + "trace_mean_gap = nan\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base +
                              "[churn]\ndrift_amplitude = 0.5\n"
                              "drift_period = nan\n"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(base + "[churn]\ndrift_amplitude = nan\n"),
               ScenarioError);
}

/// Parses `text` as scenario "probe" and expects a ScenarioError that names
/// the scenario and `key`.
void expect_range_error(const std::string& text, const std::string& key) {
  try {
    parse_scenario(text, "probe");
    ADD_FAILURE() << "accepted: " << text;
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario 'probe'"), std::string::npos) << what;
    EXPECT_NE(what.find(key), std::string::npos) << what;
  }
}

/// A generator spec whose [cloud] section sets `key = value`.
std::string cloud_spec(const std::string& key, const std::string& value) {
  return "[workload]\ncircuits = ising_n34\n[cloud]\n" + key + " = " + value +
         "\n";
}

TEST(ScenarioParserTest, RejectsEprSuccessProbOutsideUnitInterval) {
  for (const char* v : {"0", "-0.1", "1.5"}) {
    expect_range_error(cloud_spec("epr_success_prob", v), "epr_success_prob");
  }
  EXPECT_NO_THROW(parse_scenario(cloud_spec("epr_success_prob", "1")));
}

TEST(ScenarioParserTest, RejectsLinkProbabilityOutsideUnitInterval) {
  for (const char* v : {"-0.1", "1.5"}) {
    expect_range_error(cloud_spec("link_probability", v), "link_probability");
  }
  for (const char* v : {"0", "1"}) {
    EXPECT_NO_THROW(parse_scenario(cloud_spec("link_probability", v)));
  }
}

TEST(ScenarioParserTest, RejectsPurificationLevelOutOfRange) {
  for (const char* v : {"-1", "16"}) {
    expect_range_error(cloud_spec("purification_level", v),
                       "purification_level");
  }
  EXPECT_NO_THROW(parse_scenario(cloud_spec("purification_level", "15")));
}

TEST(ScenarioParserTest, RejectsOutOfRangeCloudSweepValue) {
  expect_range_error(
      "[workload]\ncircuits = ising_n34\n"
      "[sweep]\ncloud.epr_success_prob = 0.3, 1.5\n",
      "epr_success_prob");
}

// Parse-only: no cloud is built, so the huge values cost nothing here.
TEST(ScenarioParserTest, RejectsNumQpusAboveCap) {
  for (const char* v : {"4097", "100000000", "2147483647"}) {
    expect_range_error(cloud_spec("num_qpus", v), "num_qpus");
  }
  EXPECT_NO_THROW(parse_scenario(cloud_spec("num_qpus", "4096")));
}

TEST(ScenarioParserTest, RejectsNumQpusSweepValueAboveCap) {
  expect_range_error(
      "[workload]\ncircuits = ising_n34\n"
      "[sweep]\ncloud.num_qpus = 20, 4097\n",
      "num_qpus");
}

// Every committed spec round-trips through to_ini(), and every scalar key
// to_ini() writes in the four sweepable sections also works as a [sweep]
// axis that reproduces the base spec, so sweepability and serialisation
// agree on one key set. The list-valued keys are the unsweepable rest.
TEST(ScenarioParserTest, CommittedSpecsRoundTripAndEveryScalarKeySweeps) {
  std::vector<std::string> files;
  for (const char* dir : {"", "soak/"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(scenario_path(dir))) {
      if (entry.path().extension() == ".ini") {
        files.push_back(entry.path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 17u);
  std::set<std::string> swept;
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    ScenarioSpec base = load_scenario_file(file);
    const std::string ini = to_ini(base);
    EXPECT_EQ(to_ini(parse_scenario(ini, base.name)), ini);

    base.sweep.clear();
    const std::string base_ini = to_ini(base);
    std::istringstream lines(base_ini);
    std::string section, line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      if (line.front() == '[') {
        section = line.substr(1, line.size() - 2);
        continue;
      }
      if (section != "cloud" && section != "workload" &&
          section != "engine" && section != "churn") {
        continue;
      }
      const std::size_t eq = line.find(" = ");
      ASSERT_NE(eq, std::string::npos) << line;
      const std::string key = line.substr(0, eq);
      const std::string axis = section + "." + key;
      SCOPED_TRACE(axis);
      const std::string text = base_ini + "\n[sweep]\n" + axis + " = " +
                               line.substr(eq + 3) + "\n";
      if (key == "circuits" || key == "qasm_files" || key == "window") {
        EXPECT_THROW(parse_scenario(text, base.name), ScenarioError);
        continue;
      }
      const std::vector<SweepPointSpec> points =
          expand_sweep(parse_scenario(text, base.name));
      ASSERT_EQ(points.size(), 1u);
      EXPECT_EQ(to_ini(points[0].spec), base_ini);
      swept.insert(axis);
    }
  }
  // The corpus covers every scalar key: 13 cloud, 6 workload, 14 engine
  // and 7 churn.
  EXPECT_EQ(swept.size(), 40u);
}

// Per-tenant aggregates recomputed from the per-job table by an
// independent oracle: sketch quantiles, exact means, SLO attainment and
// Jain's index must all match what run_scenario() reports. The near-zero
// weight tenant exercises the zero-completion edge.
TEST(ScenarioTest, TenantAggregatesMatchBruteForceOracle) {
  const char* text =
      "[workload]\n"
      "circuits = ising_n34, qft_n29, multiplier_n45, qft_n63, ising_n66, "
      "bv_n70, knn_n67, qugan_n71\n"
      "[engine]\n"
      "mode = multi_tenant\n"
      "seed = 11\n"
      "[tenant.gold]\n"
      "priority = 1\n"
      "slo_jct = 1e9\n"
      "[tenant.bronze]\n"
      "weight = 2\n"
      "slo_jct = 1\n"
      "[tenant.ghost]\n"
      "weight = 1e-9\n";
  const ScenarioSpec spec = parse_scenario(text, "oracle");
  const ScenarioResult result = run_scenario(spec);

  ASSERT_EQ(result.tenants.size(), 3u);
  ASSERT_EQ(result.jobs.size(), 8u);
  std::vector<double> mean_jcts;
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    SCOPED_TRACE(result.tenants[t].name);
    const ScenarioTenantResult& agg = result.tenants[t];
    QuantileSketch sketch;
    std::size_t jobs = 0, completed = 0, within = 0;
    double total = 0.0;
    for (const auto& job : result.jobs) {
      if (job.tenant != static_cast<int>(t)) continue;
      ++jobs;
      if (!job.placed) continue;
      ++completed;
      const double jct = job.completion_time - job.arrival;
      total += jct;
      sketch.add(jct);
      if (jct <= agg.slo_target) ++within;
    }
    EXPECT_EQ(agg.jobs, jobs);
    EXPECT_EQ(agg.completed, completed);
    if (completed == 0) {
      EXPECT_EQ(agg.mean_jct, 0.0);
      EXPECT_EQ(agg.jct_p95, 0.0);
      EXPECT_EQ(agg.slo_attainment, 1.0);
    } else {
      EXPECT_EQ(agg.mean_jct, total / static_cast<double>(completed));
      EXPECT_EQ(agg.jct_p50, sketch.quantile(0.5));
      EXPECT_EQ(agg.jct_p95, sketch.quantile(0.95));
      EXPECT_EQ(agg.jct_p99, sketch.quantile(0.99));
      EXPECT_EQ(agg.slo_attainment,
                static_cast<double>(within) / static_cast<double>(completed));
      mean_jcts.push_back(agg.mean_jct);
    }
  }
  EXPECT_EQ(result.jain_fairness, jains_index(mean_jcts));
  // An eight-job draw essentially never lands on a 1e-9 weight: ghost is
  // the deliberate zero-completion tenant.
  EXPECT_EQ(result.tenants[2].jobs, 0u);
  // gold's 1e9 deadline always holds; bronze's 1-unit deadline never does.
  EXPECT_EQ(result.tenants[0].slo_attainment, 1.0);
  EXPECT_EQ(result.tenants[1].slo_attainment, 0.0);
}

// One tenant draws no RNG and applies no reordering: the run must be
// bit-identical to the tenantless spec, with the tenant block layered on
// top as pure reporting.
TEST(ScenarioTest, SingleTenantSpecMatchesTenantlessRun) {
  ScenarioSpec spec;
  spec.name = "one_tenant";
  spec.workload.circuits = {"ising_n34", "qft_n63", "bv_n70"};
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.engine.seed = 5;
  TenantSpec tenant;
  tenant.name = "solo";
  tenant.priority = 3;
  tenant.slo_jct = 1e9;
  spec.tenants.push_back(tenant);
  const ScenarioResult with_tenant = run_scenario(spec);

  ScenarioSpec plain = spec;
  plain.tenants.clear();
  const ScenarioResult tenantless = run_scenario(plain);

  ASSERT_EQ(with_tenant.jobs.size(), tenantless.jobs.size());
  for (std::size_t i = 0; i < with_tenant.jobs.size(); ++i) {
    EXPECT_EQ(with_tenant.jobs[i].placed_time,
              tenantless.jobs[i].placed_time);
    EXPECT_EQ(with_tenant.jobs[i].completion_time,
              tenantless.jobs[i].completion_time);
    EXPECT_EQ(with_tenant.jobs[i].est_fidelity,
              tenantless.jobs[i].est_fidelity);
    EXPECT_EQ(with_tenant.jobs[i].remote_ops, tenantless.jobs[i].remote_ops);
    EXPECT_EQ(with_tenant.jobs[i].tenant, 0);
    EXPECT_EQ(tenantless.jobs[i].tenant, -1);
  }
  EXPECT_EQ(with_tenant.makespan, tenantless.makespan);
  EXPECT_EQ(with_tenant.mean_jct, tenantless.mean_jct);
  EXPECT_EQ(with_tenant.mean_fidelity, tenantless.mean_fidelity);
  EXPECT_EQ(with_tenant.placement_calls, tenantless.placement_calls);
  ASSERT_EQ(with_tenant.tenants.size(), 1u);
  EXPECT_EQ(with_tenant.tenants[0].jobs, with_tenant.jobs.size());
  EXPECT_EQ(with_tenant.jain_fairness, 1.0);
  EXPECT_TRUE(tenantless.tenants.empty());
}

TEST(ScenarioTest, ExpandSweepIsRowMajorFirstAxisSlowest) {
  ScenarioSpec spec;
  spec.workload.circuits = {"ising_n34"};
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.sweep.push_back({"engine.seed", {"1", "2"}});
  spec.sweep.push_back({"engine.fifo", {"false", "true"}});
  const auto points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 4u);
  const std::uint64_t seeds[] = {1, 1, 2, 2};
  const bool fifos[] = {false, true, false, true};
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(points[i].spec.engine.seed, seeds[i]);
    EXPECT_EQ(points[i].spec.engine.fifo, fifos[i]);
    EXPECT_TRUE(points[i].spec.sweep.empty());
    ASSERT_EQ(points[i].assignment.size(), 2u);
    EXPECT_EQ(points[i].assignment[0].first, "engine.seed");
    EXPECT_EQ(points[i].assignment[0].second, std::to_string(seeds[i]));
    EXPECT_EQ(points[i].assignment[1].second, fifos[i] ? "true" : "false");
  }
}

// A sweep of exactly one point is the plain run, field for field.
TEST(ScenarioTest, SweepOfOneEqualsPlainRunScenario) {
  ScenarioSpec spec;
  spec.name = "sweep1";
  spec.workload.circuits = {"ising_n34", "qft_n29"};
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.engine.seed = 3;
  spec.sweep.push_back({"engine.fifo", {"true"}});
  const SweepResult sweep = run_sweep(spec);
  ASSERT_EQ(sweep.points.size(), 1u);
  ASSERT_EQ(sweep.points[0].assignment.size(), 1u);
  EXPECT_EQ(sweep.points[0].assignment[0].first, "engine.fifo");
  EXPECT_EQ(sweep.points[0].assignment[0].second, "true");

  ScenarioSpec plain = spec;
  plain.sweep.clear();
  plain.engine.fifo = true;
  const ScenarioResult direct = run_scenario(plain);
  const ScenarioResult& point = sweep.points[0].result;
  ASSERT_EQ(point.jobs.size(), direct.jobs.size());
  for (std::size_t i = 0; i < point.jobs.size(); ++i) {
    EXPECT_EQ(point.jobs[i].completion_time, direct.jobs[i].completion_time);
    EXPECT_EQ(point.jobs[i].est_fidelity, direct.jobs[i].est_fidelity);
  }
  EXPECT_EQ(point.makespan, direct.makespan);
  EXPECT_EQ(point.mean_jct, direct.mean_jct);
  EXPECT_EQ(point.mean_fidelity, direct.mean_fidelity);
  EXPECT_EQ(point.placement_calls, direct.placement_calls);
}

// End-to-end churn through the spec layer: maintenance over half the
// paper cloud displaces in-flight work, everything still completes, and
// the restarts are visible in the per-job table.
TEST(ScenarioTest, ChurnSpecDisplacesJobsAndStillCompletes) {
  ScenarioSpec spec;
  spec.name = "churny";
  spec.workload.circuits = {"knn_n67", "qugan_n71", "qft_n63", "ising_n66",
                            "bv_n70", "ghz_n127"};
  spec.engine.mode = EngineMode::kMultiTenant;
  spec.engine.seed = 9;
  for (int q = 0; q < 10; ++q) {
    spec.churn.windows.push_back({q, 1.0, 2000.0});
  }
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.jobs.size(), 6u);
  int restarts = 0;
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.placed);
    EXPECT_GT(job.completion_time, 0.0);
    restarts += job.restarts;
  }
  EXPECT_GE(restarts, 1);
}

}  // namespace
}  // namespace cloudqc
