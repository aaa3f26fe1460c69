// Online streaming service layer (ROADMAP "million-job streaming service
// core"): run an *unbounded* arrival stream through the incoming-mode
// admission discipline and the shared NetworkSimulator with O(1) memory
// residual per completed job.
//
// run_incoming and run_batch take a drained source (a job vector) and
// return a per-job table, so their memory grows O(jobs) and a jobs=1e6
// workload is out of reach. run_streaming() replaces both ends of that
// lifecycle:
//
//   intake   — jobs are *pulled* from a JobSource one at a time (never
//              materialised as a vector) into sharded intake queues; the
//              pending set is bounded by max_pending with a documented
//              backpressure policy (defer = stop pulling until admissions
//              free space, the arrival timestamps are the source's and do
//              not shift; reject = keep pulling, drop and count overflow).
//   admission— the shared lifecycle core (core/job_lifecycle.hpp) scans
//              shards in fixed index order, FIFO with head-of-line skipping
//              inside each shard, through the same AdmissionGate
//              capacity-signature rule and (optional) placement cache as
//              run_incoming.
//   drain    — completed jobs fold into per-shard StreamingMetrics
//              (QuantileSketch JCT + fidelity) and every byte of per-job
//              state is freed: the engine erases its in-flight record and
//              the simulator recycles the job slot
//              (NetworkSimulator::set_recycle_completed). Steady-state
//              memory is O(max_pending + in-flight + sketch), independent
//              of how many jobs have streamed through.
//
// Jobs that can never fit the cloud's total capacity, and pending jobs
// that fail two forced placement attempts against a fully idle cloud with
// nothing left that could change capacity, are dropped and counted
// (rejected / rejected_oversize) instead of aborting — a service skips a
// bad job, it does not wedge a million-job run on one.
//
// Determinism contract: a (source, seed, options) triple fully determines
// the resulting StreamingMetrics at any worker count. The engine is a
// serial control loop (workers only parallelise a racing placer, which is
// already worker-count-invariant), intake shards are a fixed option (not
// the worker count), and shard sketches merge commutatively — so metrics,
// including every quantile, are bit-identical at 1/2/8 workers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/incoming.hpp"
#include "metrics/streaming_metrics.hpp"

namespace cloudqc {

/// Stream over a pre-built trace (tests, QASM lists, parity harnesses).
std::unique_ptr<JobSource> make_vector_source(std::vector<ArrivingJob> jobs);

/// Pull `source` until it is exhausted and return its jobs in order: the
/// materialised trace that run_incoming takes. Every vector form of a
/// workload is a drained source, so a generator exists only as a source.
std::vector<ArrivingJob> drain(JobSource& source);

/// Poisson arrivals: exponential inter-arrival gaps with the given mean,
/// circuits drawn uniformly from `names`. Per job the source draws the gap,
/// then the circuit, from Rng(seed), so (names, num_jobs, mean_gap, seed)
/// fixes the stream.
std::unique_ptr<JobSource> make_poisson_source(std::vector<std::string> names,
                                               int num_jobs, double mean_gap,
                                               std::uint64_t seed);

/// Bursty arrivals: `num_jobs` jobs in groups of `burst_size` simultaneous
/// arrivals, groups separated by exponential gaps with the given mean (the
/// last group may be partial). Models batch submissions / flash crowds — a
/// heavier instantaneous load than a Poisson stream at the same mean rate
/// per group. A Poisson source is bursts of one.
std::unique_ptr<JobSource> make_burst_source(std::vector<std::string> names,
                                             int num_jobs, int burst_size,
                                             double mean_gap,
                                             std::uint64_t seed);

/// What to do with new arrivals while the pending set is at max_pending.
enum class StreamingBackpressure {
  /// Stop pulling from the source until admissions free space. Arrival
  /// timestamps are the source's own and do not shift — deferral delays
  /// *admission* (queueing time counts into JCT), models an upstream
  /// buffer that absorbs the burst.
  kDefer,
  /// Keep pulling and drop overflow arrivals, counted in
  /// StreamingMetrics::rejected — models a load-shedding front end.
  kReject,
};

/// Knobs of run_streaming (the shared ones live in EngineOptions; at
/// streaming traffic the placement cache is what keeps placement off the
/// critical path).
struct StreamingOptions : EngineOptions {
  /// Bound on the pending set (arrived, not yet placed). The engine's
  /// memory residual is O(max_pending + in-flight + sketches).
  std::size_t max_pending = 4096;
  StreamingBackpressure backpressure = StreamingBackpressure::kDefer;
  /// Intake shard count (>= 1). A *fixed* partition of the fold: job i
  /// lands in shard i % intake_shards, per-shard sketches merge in shard
  /// order. Deliberately not tied to any worker count, so the metrics
  /// partition never changes with parallelism.
  int intake_shards = 8;
  /// Invoke on_checkpoint after every `checkpoint_interval` completions
  /// (0 = never). The callback must not mutate engine state; it exists so
  /// benches can sample memory/throughput at fractions of the run.
  std::uint64_t checkpoint_interval = 0;
  std::function<void(const StreamingProgress&)> on_checkpoint;
};

/// Drain `source` to completion through the streaming lifecycle above and
/// return the folded metrics. At return, submitted == completed + rejected
/// and no per-job state survives.
StreamingMetrics run_streaming(JobSource& source, QuantumCloud& cloud,
                               const Placer& placer,
                               const CommAllocator& allocator,
                               const StreamingOptions& options);

}  // namespace cloudqc
