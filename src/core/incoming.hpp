// Incoming-job mode (Sec. V-B): jobs arrive over time and CloudQC processes
// them first-in-first-out — each arrival is placed as soon as resources
// allow, runs concurrently with already-admitted tenants, and JCT is
// measured from *arrival* (so queueing delay counts).
//
// run_incoming is the per-job view of the shared lifecycle core
// (core/job_lifecycle.hpp): it takes a materialised trace — drain() any
// JobSource (core/streaming.hpp) to build one — feeds it to the core as a
// vector source with a per-job table and returns one JobStats per job.
// run_streaming is the aggregate-only view of the same core, with the
// same EngineOptions.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "core/job_lifecycle.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"

namespace cloudqc {

/// Run an arrival trace to completion and return one JobStats per job,
/// indexed like the trace. Jobs must be sorted by non-decreasing arrival
/// time. Admission is FIFO (priority-first with classes) with head-of-line
/// skipping: a job that cannot be placed right now does not block smaller
/// jobs behind it, but keeps its queue position. Jobs larger than the
/// cloud and jobs that can never be admitted into an idle cloud throw
/// std::logic_error. `options.classes` must be empty or indexed like the
/// trace; reject backpressure is refused (every job gets a row).
std::vector<JobStats> run_incoming(std::vector<ArrivingJob> jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   const EngineOptions& options);

/// Convenience overload with default options and the given seed.
std::vector<JobStats> run_incoming(std::vector<ArrivingJob> jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   std::uint64_t seed = 1);

}  // namespace cloudqc
