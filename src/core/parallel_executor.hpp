// Parallel batch-execution engine (the throughput layer over the serial
// pipeline): fans independent work — whole jobs, scenario sweep points —
// across a worker-thread pool and merges results in deterministic
// submission order.
//
// Determinism contract: every task seeds a private Rng with
// stream_seed(seed, task index) and reads only const shared state (each
// job simulation runs against a private QuantumCloud copy), so for a fixed
// seed the merged results are bit-identical to a serial run regardless of
// the worker count or thread scheduling.
//
// Two gates enforce the contract mechanically: tools/determinism_lint
// rejects raw randomness / wall-clock reads / unordered-container
// iteration in task code, and the tsan CI job re-runs the
// unit+integration suites under ThreadSanitizer to prove the "reads only
// const shared state" claim instead of trusting it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "common/thread_pool.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"

namespace cloudqc {

/// Outcome of one independently executed job (run_independent).
struct IndependentJobResult {
  std::string name;
  /// False when the placer found no feasible mapping on an empty cloud.
  bool placed = false;
  double completion_time = 0.0;
  double est_fidelity = 1.0;
  double log_fidelity = 0.0;
  double comm_cost = 0.0;
  std::size_t remote_ops = 0;
  int qpus_used = 0;
  std::uint64_t epr_rounds = 0;
};

class ParallelExecutor {
 public:
  /// `num_threads <= 0` selects ThreadPool::default_num_threads();
  /// `num_threads == 1` runs every task inline on the caller's thread (the
  /// serial reference the determinism tests compare against).
  explicit ParallelExecutor(int num_threads = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  int num_threads() const { return num_threads_; }

  /// The underlying pool; null in serial (1-thread) mode. Safe to share
  /// with a racing placer used inside run_independent: a parallel_for
  /// called from within an executor task runs inline on that worker,
  /// whichever pool it targets (see ThreadPool::parallel_for). So a race,
  /// or a CloudQC placer's candidate sweep, fired from a task neither
  /// deadlocks nor fans out into ThreadPool::shared(): the jobs keep this
  /// pool saturated and the cores are not oversubscribed. In serial mode
  /// the jobs run on the caller's thread, so each CloudQC sweep fans out
  /// into the shared pool.
  ThreadPool* pool() const { return pool_.get(); }

  /// Throughput mode: place and simulate every job independently, each
  /// against a private copy of `cloud` with its full resources (jobs of
  /// different tenants on disjoint hardware slices). Job i uses RNG stream
  /// stream_seed(seed, i); results are returned in submission order.
  /// Jobs that can never fit the cloud throw std::logic_error up front
  /// (check_fits_cloud, as in run_batch/run_incoming); `placed == false`
  /// marks jobs that fit in principle but found no feasible mapping.
  std::vector<IndependentJobResult> run_independent(
      const std::vector<Circuit>& jobs, const QuantumCloud& cloud,
      const Placer& placer, const CommAllocator& allocator,
      std::uint64_t seed = 1);

  /// Generic deterministic fan-out: run fn(0) … fn(n-1) across the pool
  /// (inline in serial mode). `fn` must write only to its own output
  /// slot and read only const shared state — then the merged outputs are
  /// bit-identical at any worker count. This is the scenario sweep
  /// runner's primitive.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  int num_threads_;
  std::unique_ptr<ThreadPool> pool_;  // null in serial mode
};

}  // namespace cloudqc
