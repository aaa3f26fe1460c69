// Incoming-job mode (Sec. V-B): jobs arrive over time and CloudQC processes
// them first-in-first-out — each arrival is placed as soon as resources
// allow, runs concurrently with already-admitted tenants, and JCT is
// measured from *arrival* (so queueing delay counts).
//
// run_incoming is the per-job view of the shared lifecycle core
// (core/job_lifecycle.hpp): it takes a materialised trace — drain() any
// JobSource (core/streaming.hpp) to build one — feeds it to the core as a
// vector source and returns one JobStats per job. run_streaming is the
// aggregate-only view of the same core.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "core/job_lifecycle.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"

namespace cloudqc {

/// Knobs of run_incoming (and, through MultiTenantOptions, of run_batch)
/// on top of EngineOptions.
struct IncomingOptions : EngineOptions {
  /// Optional per-job tenant classes, indexed like the engine's jobs.
  /// Empty keeps the classless engine bit-identical; non-empty must match
  /// the job count. A job enters the queue before every strictly
  /// lower-priority entry (stable within a priority level, so uniform
  /// classes reproduce the classless order exactly), and preempt-enabled
  /// jobs may evict strictly-lower-priority in-flight work when placement
  /// fails.
  std::vector<JobClass> classes;
  /// Optional maintenance/churn timeline (not owned; see cloud/churn.hpp).
  /// Null — or a plan with no events and zero drift — keeps the
  /// static-cloud trajectory. Offline edges displace every in-flight job
  /// holding qubits on the departing QPU (policy kRequeue re-queues it at
  /// its key, kMigrate attempts an immediate re-placement first) and fence
  /// the QPU's computing and communication capacity until the matching
  /// online edge, or until the run ends.
  const ChurnPlan* churn = nullptr;
};

/// Run an arrival trace to completion and return one JobStats per job,
/// indexed like the trace. Jobs must be sorted by non-decreasing arrival
/// time. Admission is FIFO (priority-first with classes) with head-of-line
/// skipping: a job that cannot be placed right now does not block smaller
/// jobs behind it, but keeps its queue position. Jobs larger than the
/// cloud and jobs that can never be admitted into an idle cloud throw
/// std::logic_error.
std::vector<JobStats> run_incoming(std::vector<ArrivingJob> jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   const IncomingOptions& options);

/// Convenience overload with default options and the given seed.
std::vector<JobStats> run_incoming(std::vector<ArrivingJob> jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   std::uint64_t seed = 1);

}  // namespace cloudqc
