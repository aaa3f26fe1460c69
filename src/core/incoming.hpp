// Incoming-job mode (Sec. V-B): jobs arrive over time and CloudQC processes
// them first-in-first-out — each arrival is placed as soon as resources
// allow, runs concurrently with already-admitted tenants, and JCT is
// measured from *arrival* (so queueing delay counts).
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"
#include "core/job_lifecycle.hpp"
#include "metrics/streaming_metrics.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"
#include "sim/event_queue.hpp"

namespace cloudqc {

/// Knobs of run_incoming (the shared ones live in TenantEngineOptions;
/// classes are indexed like the trace).
struct IncomingOptions : TenantEngineOptions {
  /// Optional streaming-aggregates sink: every completed job folds its
  /// JCT/fidelity/makespan in (O(1) residual, quantiles via the sketch).
  /// Callers that only need aggregates pair this with per_job_stats =
  /// false so the engine stops holding a per-job vector it never returns.
  StreamingMetrics* metrics = nullptr;
  /// When false, run_incoming returns an empty vector instead of the
  /// per-job table — aggregate-only callers then hold O(in-flight) stats
  /// state instead of O(jobs) (the arrival trace itself remains the
  /// caller's O(jobs); run_streaming removes that too).
  bool per_job_stats = true;
};

/// Run an arrival trace to completion. Jobs must be sorted by
/// non-decreasing arrival time. Admission is FIFO (priority-first with
/// classes) with head-of-line skipping: a job that cannot be placed right
/// now does not block smaller jobs behind it, but keeps its queue position.
/// Jobs larger than the cloud and jobs that can never be admitted into an
/// idle cloud throw std::logic_error.
std::vector<JobStats> run_incoming(const std::vector<ArrivingJob>& jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   const IncomingOptions& options);

/// Convenience overload with default options and the given seed.
std::vector<JobStats> run_incoming(const std::vector<ArrivingJob>& jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   std::uint64_t seed = 1);

/// Build a Poisson arrival trace: exponential inter-arrival gaps with the
/// given mean, circuits drawn uniformly from `names`.
std::vector<ArrivingJob> poisson_trace(const std::vector<std::string>& names,
                                       int num_jobs, double mean_gap,
                                       Rng& rng);

/// Build a bursty arrival trace: `num_jobs` jobs in groups of `burst_size`
/// simultaneous arrivals, groups separated by exponential gaps with the
/// given mean (the last group may be partial). Models batch submissions /
/// flash crowds — a heavier instantaneous load than poisson_trace at the
/// same mean rate per group. Circuits are drawn uniformly from `names`.
std::vector<ArrivingJob> burst_trace(const std::vector<std::string>& names,
                                     int num_jobs, int burst_size,
                                     double mean_gap, Rng& rng);

}  // namespace cloudqc
