// Incoming-job mode demo (Sec. V-B's second processing mode): a Poisson
// stream of tenant jobs arrives at the cloud; each is placed on arrival if
// resources allow, otherwise it queues. Prints the per-job timeline and the
// load-dependent queueing delay.
//
//   ./incoming_jobs [num-jobs] [mean-gap] [seed]   (defaults: 15, 2000, 1)
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/csv.hpp"
#include "core/cloudqc.hpp"

int main(int argc, char** argv) {
  using namespace cloudqc;
  const int num_jobs = argc > 1 ? std::atoi(argv[1]) : 15;
  const double mean_gap = argc > 2 ? std::atof(argv[2]) : 2000.0;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  CloudConfig config;
  Rng rng(seed);
  QuantumCloud cloud(config, rng);

  const std::vector<std::string> mix = {"qugan_n71", "knn_n67", "ising_n66",
                                        "qft_n29", "multiplier_n45"};
  const auto trace =
      drain(*make_poisson_source(mix, num_jobs, mean_gap, seed));
  std::printf(
      "Poisson arrivals: %d jobs, mean gap %.0f time units, %d-QPU cloud\n\n",
      num_jobs, mean_gap, cloud.num_qpus());

  const auto placer = make_cloudqc_placer();
  const auto allocator = make_cloudqc_allocator();
  const auto stats = run_incoming(trace, cloud, *placer, *allocator, seed);

  TextTable table({"job", "arrival", "placed", "completed", "queue delay",
                   "JCT"});
  std::vector<double> delays, jcts;
  for (const auto& s : stats) {
    const double delay = s.placed_time - s.arrival;
    table.add_row({s.name, fmt_double(s.arrival, 0),
                   fmt_double(s.placed_time, 0),
                   fmt_double(s.completion_time, 0), fmt_double(delay, 0),
                   fmt_double(s.jct(), 0)});
    delays.push_back(delay);
    jcts.push_back(s.jct());
  }
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nqueueing delay: mean %.0f, max %.0f | JCT: mean %.0f, p95 %.0f\n",
              mean(delays), maximum(delays), mean(jcts),
              percentile(jcts, 95));
  return 0;
}
