#include "core/parallel_executor.hpp"

#include "core/job_lifecycle.hpp"
#include "schedule/scheduler.hpp"

namespace cloudqc {

ParallelExecutor::ParallelExecutor(int num_threads)
    : num_threads_(num_threads <= 0 ? ThreadPool::default_num_threads()
                                    : num_threads) {
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

ParallelExecutor::~ParallelExecutor() = default;

void ParallelExecutor::run_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (pool_ != nullptr && n > 1) {
    pool_->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

std::vector<IndependentJobResult> ParallelExecutor::run_independent(
    const std::vector<Circuit>& jobs, const QuantumCloud& cloud,
    const Placer& placer, const CommAllocator& allocator,
    std::uint64_t seed) {
  // Same admission precondition as the batch and incoming engines: a job
  // that can never fit the cloud is a caller error, not an "unplaced" row.
  for (const auto& job : jobs) check_fits_cloud(job, cloud);
  std::vector<IndependentJobResult> results(jobs.size());
  run_indexed(jobs.size(), [&](std::size_t i) {
    // Private RNG stream and private cloud: the task's result is a pure
    // function of (jobs[i], cloud, seed, i).
    Rng rng(stream_seed(seed, i));
    QuantumCloud view = cloud;
    IndependentJobResult& r = results[i];
    r.name = jobs[i].name();
    const auto placement = placer.place(jobs[i], view, rng);
    if (!placement.has_value()) return;
    r.placed = true;
    r.comm_cost = placement->comm_cost;
    r.remote_ops = placement->remote_ops;
    r.qpus_used = placement->num_qpus_used();
    const auto run = run_schedule(jobs[i], *placement, view, allocator, rng);
    r.completion_time = run.completion_time;
    r.est_fidelity = run.est_fidelity;
    r.log_fidelity = run.log_fidelity;
    r.epr_rounds = run.epr_rounds;
  });
  return results;
}

}  // namespace cloudqc
