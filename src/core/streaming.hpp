// Online streaming service layer (ROADMAP "million-job streaming service
// core"): run an *unbounded* arrival stream through the incoming-mode
// admission discipline and the shared NetworkSimulator with O(1) memory
// residual per completed job.
//
// run_incoming and run_batch take a drained source (a job vector) and
// return a per-job table, so their memory grows O(jobs) and a jobs=1e6
// workload is out of reach. run_streaming() runs the same lifecycle core
// with the same EngineOptions (classes and churn included) but replaces
// both ends of it:
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
// bad job, it does not wedge a million-job run on one. That is the core's
// rule for a run without a per-job table.
//
// Determinism contract: a (source, seed, options) triple fully determines
// the resulting StreamingMetrics at any worker count. The engine is a
// serial control loop (workers only parallelise a racing placer, which is
// already worker-count-invariant), intake shards are a fixed option (not
// the worker count), and shard sketches merge commutatively — so metrics,
// including every quantile, are bit-identical at 1/2/8 workers.
#pragma once

#include <cstdint>
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

/// run_streaming's options: the lifecycle's EngineOptions with a bounded
/// pending set (4096) and 8 intake shards by default. At streaming
/// traffic the placement cache is what keeps placement off the critical
/// path.
struct StreamingOptions : EngineOptions {
  StreamingOptions() {
    max_pending = 4096;
    intake_shards = 8;
  }
};

/// Drain `source` to completion through the streaming lifecycle above and
/// return the folded metrics. At return, submitted == completed + rejected
/// and no per-job state survives.
StreamingMetrics run_streaming(JobSource& source, QuantumCloud& cloud,
                               const Placer& placer,
                               const CommAllocator& allocator,
                               const EngineOptions& options);

}  // namespace cloudqc
