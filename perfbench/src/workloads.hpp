// The benchmark's workloads. Each builds every input the library receives
// from one workload seed (cloud, circuits or arrival trace, policies) and
// then drives one public entry point: run_streaming, or
// NetworkSimulator::add_job/step.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "placement/placement_cache.hpp"
#include "trace.hpp"

namespace perfbench {

/// Simulated outputs of one run: a pure function of (workload, seed), so
/// every repetition, traced or not, must reproduce them bit for bit.
struct Outputs {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  double jct_mean = 0.0;
  double jct_p50 = 0.0;
  /// JCT with exactly 10 completed jobs above it; `jct_tail_pct` is that
  /// percentile, 100 * (completed - 10) / completed.
  double jct_tail = 0.0;
  double jct_tail_pct = 0.0;
  double makespan = 0.0;
  /// Mean Placement::remote_ops per job (netsim-fattree) or per
  /// placer-computed placement (stream-cached, whose engine does not report
  /// per-job placements; exact cache hits reuse one of these).
  double remote_ops_mean = 0.0;
  cloudqc::PlacementCacheStats cache;
  std::uint64_t peak_pending = 0;
  std::uint64_t peak_in_flight = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t sim_alloc_rounds = 0;
  std::uint64_t sim_epr_rounds = 0;

  /// Field names that differ from `other` (empty when identical).
  std::string diff(const Outputs& other) const;
};

/// Call counts read from the forwarding decorators of one run.
struct LayerCounts {
  std::uint64_t place_calls = 0;
  std::uint64_t place_ctx_calls = 0;
  std::uint64_t place_fails = 0;
  std::uint64_t alloc_calls = 0;
  std::uint64_t alloc_requests = 0;
  std::uint64_t route_calls = 0;
  std::uint64_t route_blocked = 0;
  bool uses_cache = false;

  bool operator==(const LayerCounts& o) const {
    return place_calls == o.place_calls && place_ctx_calls == o.place_ctx_calls &&
           place_fails == o.place_fails && alloc_calls == o.alloc_calls &&
           alloc_requests == o.alloc_requests && route_calls == o.route_calls &&
           route_blocked == o.route_blocked && uses_cache == o.uses_cache;
  }
};

struct SetupTimes {
  double cloud_s = 0.0;
  double circuits_s = 0.0;
  double total_s = 0.0;
};

struct RunResult {
  Outputs outputs;
  LayerCounts counts;
  /// Host seconds spent in the library entry points and the loop around them.
  double run_s = 0.0;
  /// Empty when every output identity held; otherwise what failed.
  std::string check_error;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every input from `seed`, replacing those of any earlier setup.
  virtual SetupTimes setup(std::uint64_t seed) = 0;
  /// One run on the inputs of the last setup(); the inputs are consumed,
  /// so every run needs its own setup(). Spans go to `tracer` when it is
  /// non-null.
  virtual RunResult run(Tracer* tracer) = 0;
};

/// nullptr for an unknown name. `tiny` shrinks the job counts for the
/// self-test.
std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny);

}  // namespace perfbench
