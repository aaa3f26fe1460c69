// Multi-tenant execution engine: admits a batch of circuits into the cloud
// in batch-manager order, places each with the configured placer as soon as
// resources allow, runs all placed jobs concurrently on the shared network
// simulator, and recycles computing qubits on completion. This is the full
// CloudQC control loop evaluated in Sec. VI-D.
//
// A batch is an incoming trace whose jobs all arrive at t = 0 in admission
// order, so run_batch is a thin ordering layer over run_incoming (and thus
// over the shared lifecycle core, core/job_lifecycle.hpp).
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "core/batch_manager.hpp"
#include "core/incoming.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"

namespace cloudqc {

/// Options of run_batch: the lifecycle's (classes are indexed like
/// `jobs`), plus the two inputs of the batch order.
struct MultiTenantOptions : EngineOptions {
  /// Importance-metric weights used for batch ordering.
  BatchWeights weights{};
  /// Use submission order instead of the importance metric
  /// (CloudQC-FIFO baseline).
  bool fifo = false;
};

/// Run one batch to completion. Jobs are admitted in batch-manager (or
/// FIFO) order, stably re-sorted by priority when classes are given.
/// `cloud` carries the topology/resource configuration; its computing-qubit
/// reservations are restored to their initial state before returning.
/// Jobs that can never fit the cloud (more qubits than total capacity)
/// throw std::logic_error. Stats are indexed like `jobs`; completion_time
/// is the JCT, since the batch arrives at t = 0. A non-null `metrics`
/// receives the run's folded metrics, as in run_incoming.
std::vector<JobStats> run_batch(const std::vector<Circuit>& jobs,
                                QuantumCloud& cloud, const Placer& placer,
                                const CommAllocator& allocator,
                                const MultiTenantOptions& options = {},
                                StreamingMetrics* metrics = nullptr);

}  // namespace cloudqc
