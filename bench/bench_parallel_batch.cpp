// Parallel batch-execution throughput: the same batch of independent jobs
// run through place → schedule → simulate at 1, 2, 4 and 8 worker threads.
// Reports jobs/second, speedup over the 1-thread row, and verifies the
// determinism contract (parallel results bit-identical to the 1-worker
// reference).
//
// The 1-thread row is not serial end to end: its jobs run on the caller's
// thread, so on a multi-core host each CloudQC placement fans its candidate
// sweep out into the process-wide ThreadPool::shared(). On the multi-thread
// rows the sweeps run inline on the executor's workers. The speedup column
// therefore compares job-level against sweep-level parallelism; it does not
// isolate executor scaling.
//
// Environment knobs:
//   CLOUDQC_BENCH_SCALE=full     larger batch (4x the jobs)
//   CLOUDQC_BENCH_THREADS=N      additionally measure N threads
#include <chrono>
#include <cstdlib>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace cloudqc;
using Clock = std::chrono::steady_clock;

std::vector<Circuit> build_batch(int copies) {
  const std::vector<std::string> names{"ising_n34", "cat_n65",  "knn_n67",
                                       "bv_n70",    "ising_n66", "adder_n64",
                                       "qugan_n71", "cc_n64"};
  std::vector<Circuit> jobs;
  for (int c = 0; c < copies; ++c) {
    for (const auto& name : names) jobs.push_back(make_workload(name));
  }
  return jobs;
}

bool identical(const IndependentJobResult& a, const IndependentJobResult& b) {
  return a.name == b.name && a.placed == b.placed &&
         a.completion_time == b.completion_time &&
         a.est_fidelity == b.est_fidelity &&
         a.log_fidelity == b.log_fidelity && a.comm_cost == b.comm_cost &&
         a.remote_ops == b.remote_ops && a.qpus_used == b.qpus_used &&
         a.epr_rounds == b.epr_rounds;
}

}  // namespace

int main() {
  bench::print_header("parallel batch-execution throughput",
                      "engine scalability (not a paper figure)");

  const int copies = bench::runs_per_point(3, 12);
  const auto jobs = build_batch(copies);
  const QuantumCloud cloud = bench::default_cloud(/*seed=*/7);
  const auto placer = make_cloudqc_placer();
  const auto alloc = make_cloudqc_allocator();
  constexpr std::uint64_t kSeed = 2026;

  const int cores = ThreadPool::default_num_threads();
  std::printf("batch: %zu jobs, cloud: %d QPUs, hardware threads: %d\n\n",
              jobs.size(), cloud.num_qpus(), cores);
  if (cores < 4) {
    std::printf(
        "NOTE: this host exposes only %d hardware thread(s); speedup is "
        "bounded by the core count (expect ~Nx on an N-core host, N >= "
        "thread count).\n\n",
        cores);
  }

  std::vector<int> thread_counts{1, 2, 4, 8};
  if (const char* extra = std::getenv("CLOUDQC_BENCH_THREADS")) {
    const int n = std::atoi(extra);
    if (n > 0) thread_counts.push_back(n);
  }

  std::vector<IndependentJobResult> reference;
  double serial_seconds = 0.0;
  TextTable table({"threads", "wall time (s)", "jobs/s", "speedup",
                   "bit-identical"});
  for (const int threads : thread_counts) {
    ParallelExecutor executor(threads);
    // Warm-up pass (first-touch allocation, thread start-up), then timed.
    executor.run_independent(jobs, cloud, *placer, *alloc, kSeed);
    const auto start = Clock::now();
    const auto results =
        executor.run_independent(jobs, cloud, *placer, *alloc, kSeed);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    bool bitwise = true;
    if (threads == 1) {
      reference = results;
      serial_seconds = seconds;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        bitwise = bitwise && identical(results[i], reference[i]);
      }
    }
    table.add_row({std::to_string(threads), fmt_double(seconds, 3),
                   fmt_double(static_cast<double>(jobs.size()) / seconds, 1),
                   fmt_double(serial_seconds / seconds, 2),
                   bitwise ? "yes" : "NO — DETERMINISM VIOLATION"});
    if (!bitwise) {
      std::fprintf(stderr, "FATAL: %d-thread results differ from serial\n",
                   threads);
      return 1;
    }
  }
  bench::print_table(table);

  // JCT summary over the (deterministically merged) reference results.
  std::vector<double> jct;
  for (const auto& r : reference) {
    if (r.placed) jct.push_back(r.completion_time);
  }
  if (!jct.empty()) {
    std::printf("\nJCT over %zu placed jobs: mean %.1f, min %.1f, max %.1f\n",
                jct.size(), mean(jct), minimum(jct), maximum(jct));
  }

  std::printf(
      "\nEvery row reruns the same %zu-job batch with seed %llu; the "
      "determinism column compares all result fields byte-for-byte against "
      "the 1-thread reference.\n",
      jobs.size(), static_cast<unsigned long long>(kSeed));
  if (cores > 1) {
    std::printf(
        "The 1-thread row runs its jobs one at a time, but fans each CloudQC "
        "candidate sweep out on the shared %d-worker pool; the other rows run "
        "the sweeps inline on their workers. Speedup is relative to that "
        "row, not to a serial run.\n",
        cores);
  }
  return 0;
}
