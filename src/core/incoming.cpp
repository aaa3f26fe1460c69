#include "core/incoming.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"
#include "core/streaming.hpp"

namespace cloudqc {

std::vector<JobStats> run_incoming(std::vector<ArrivingJob> jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   const EngineOptions& options,
                                   StreamingMetrics* metrics) {
  CLOUDQC_CHECK_MSG(
      options.classes.empty() || options.classes.size() == jobs.size(),
      "classes must be empty or indexed like the trace");
  std::vector<JobStats> stats;
  const std::unique_ptr<JobSource> source = make_vector_source(std::move(jobs));
  StreamingMetrics total =
      run_lifecycle(*source, cloud, placer, allocator, options, &stats);
  if (metrics != nullptr) *metrics = std::move(total);
  return stats;
}

std::vector<JobStats> run_incoming(std::vector<ArrivingJob> jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   std::uint64_t seed) {
  EngineOptions options;
  options.seed = seed;
  return run_incoming(std::move(jobs), cloud, placer, allocator, options);
}

}  // namespace cloudqc
