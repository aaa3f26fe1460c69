#include "core/multi_tenant.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cloudqc {

std::vector<JobStats> run_batch(const std::vector<Circuit>& jobs,
                                QuantumCloud& cloud, const Placer& placer,
                                const CommAllocator& allocator,
                                const MultiTenantOptions& options,
                                StreamingMetrics* metrics) {
  const std::vector<JobClass>& classes = options.classes;
  CLOUDQC_CHECK_MSG(classes.empty() || classes.size() == jobs.size(),
                    "classes must be empty or indexed like jobs");
  auto order = options.fifo ? fifo_order(jobs.size())
                            : batch_order(jobs, options.weights);
  if (!classes.empty()) {
    // Priority-first admission: stable within a priority level, so
    // uniform classes reproduce the classless order exactly.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return classes[a].priority > classes[b].priority;
                     });
  }

  // The batch as a trace: everything arrives at t = 0 in admission order,
  // so a job's trace index is its rank and displaced jobs re-enter there.
  std::vector<ArrivingJob> trace;
  trace.reserve(jobs.size());
  EngineOptions incoming = options;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    trace.push_back({jobs[order[rank]], 0.0});
    if (!classes.empty()) incoming.classes[rank] = classes[order[rank]];
  }
  std::vector<JobStats> ranked =
      run_incoming(std::move(trace), cloud, placer, allocator, incoming,
                   metrics);

  std::vector<JobStats> stats(jobs.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    stats[order[rank]] = std::move(ranked[rank]);
  }
  return stats;
}

}  // namespace cloudqc
