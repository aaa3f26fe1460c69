#include "core/incoming.hpp"

#include <cmath>
#include <optional>

#include "circuit/workloads.hpp"
#include "common/check.hpp"

namespace cloudqc {

namespace {

/// Source over a caller-owned trace; each pull copies one circuit.
class TraceSource final : public JobSource {
 public:
  explicit TraceSource(const std::vector<ArrivingJob>& jobs) : jobs_(jobs) {}
  std::optional<ArrivingJob> next() override {
    if (next_ >= jobs_.size()) return std::nullopt;
    return jobs_[next_++];
  }

 private:
  const std::vector<ArrivingJob>& jobs_;
  std::size_t next_ = 0;
};

}  // namespace

std::vector<JobStats> run_incoming(const std::vector<ArrivingJob>& jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   const IncomingOptions& options) {
  CLOUDQC_CHECK_MSG(
      options.classes.empty() || options.classes.size() == jobs.size(),
      "classes must be empty or indexed like the trace");
  std::vector<JobStats> stats(options.per_job_stats ? jobs.size() : 0);
  LifecycleSettings settings;
  settings.churn = options.churn;
  settings.classes = &options.classes;
  settings.table = options.per_job_stats ? &stats : nullptr;
  TraceSource source(jobs);
  StreamingMetrics metrics =
      run_lifecycle(source, cloud, placer, allocator, options, settings);
  if (options.metrics != nullptr) {
    // The incoming sink folds completions only; it reports no queue depths.
    metrics.peak_pending = 0;
    metrics.peak_in_flight = 0;
    options.metrics->merge(metrics);
  }
  return stats;
}

std::vector<JobStats> run_incoming(const std::vector<ArrivingJob>& jobs,
                                   QuantumCloud& cloud, const Placer& placer,
                                   const CommAllocator& allocator,
                                   std::uint64_t seed) {
  IncomingOptions options;
  options.seed = seed;
  return run_incoming(jobs, cloud, placer, allocator, options);
}

std::vector<ArrivingJob> poisson_trace(const std::vector<std::string>& names,
                                       int num_jobs, double mean_gap,
                                       Rng& rng) {
  return burst_trace(names, num_jobs, 1, mean_gap, rng);
}

std::vector<ArrivingJob> burst_trace(const std::vector<std::string>& names,
                                     int num_jobs, int burst_size,
                                     double mean_gap, Rng& rng) {
  CLOUDQC_CHECK(!names.empty());
  CLOUDQC_CHECK(num_jobs >= 0);
  CLOUDQC_CHECK(burst_size >= 1);
  CLOUDQC_CHECK(mean_gap > 0.0);
  std::vector<ArrivingJob> trace;
  trace.reserve(static_cast<std::size_t>(num_jobs));
  SimTime t = 0.0;
  for (int i = 0; i < num_jobs; ++i) {
    if (i % burst_size == 0) {
      // Exponential inter-arrival gap via inverse CDF.
      t += -mean_gap * std::log1p(-rng.uniform());
    }
    trace.push_back({make_workload(rng.pick(names)), t});
  }
  return trace;
}

}  // namespace cloudqc
