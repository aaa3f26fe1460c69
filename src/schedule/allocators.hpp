// Communication-qubit allocation strategies (Sec. V-C and the Sec. VI-C
// baselines). At every scheduling decision point the simulator hands the
// allocator the set of ready remote operations plus the per-QPU free
// communication-qubit counts; the allocator decides how many redundant
// EPR-generation pipelines each operation receives (0 = wait).
//
// Decision points are change-gated (see sim/network_sim.hpp): the
// simulator only invokes the allocator when the free-comm vector or the
// ready set changed since the last round, and — with routing enabled —
// may invoke it several times per event until a round starts no
// operation. Implementations must therefore be pure functions of
// (requests, free_comm, rng): identical inputs must yield identical
// grants, and an implementation must not rely on being called once per
// simulated event. The three deterministic strategies below ignore `rng`
// entirely, which is what makes gated and ungated event loops
// bit-identical for them.
//
// Allocating x pairs to an op consumes x communication qubits on *both*
// endpoint QPUs, mirroring the paper's note that resources on both machines
// decrease by the allocated amount.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "common/rng.hpp"

namespace cloudqc {

/// One ready remote operation competing for communication qubits.
struct CommRequest {
  /// Opaque caller handle (job id / node id); not interpreted here.
  int handle = 0;
  /// Scheduling priority (longest path to a remote-DAG leaf).
  double priority = 0.0;
  QpuId qpu_a = kInvalidNode;
  QpuId qpu_b = kInvalidNode;
};

class CommAllocator {
 public:
  virtual ~CommAllocator() = default;
  virtual std::string name() const = 0;

  /// Decide pair counts for each request (same order as `requests`).
  /// `free_comm[q]` is the number of free communication qubits on QPU q;
  /// the returned allocation must satisfy, for every QPU q,
  ///   Σ_{r : q ∈ {r.a, r.b}} pairs[r] ≤ free_comm[q].
  /// A request may receive 0 (it waits for the next decision point).
  virtual std::vector<int> allocate(const std::vector<CommRequest>& requests,
                                    std::vector<int> free_comm,
                                    Rng& rng) const = 0;
};

/// Priority order, used by CloudQC and Greedy: priority descending, ties by
/// request index ascending (FIFO). Grants depend on this exact order, so
/// any reimplementation must reproduce it, ties included.
///
/// CloudQC: every schedulable request first receives one pair in priority
/// order (starvation freedom), then the remaining budget is handed out one
/// pair at a time to the request with the highest priority-per-pair ratio
/// (priority + 1) / pairs, ties going to the request earlier in priority
/// order (proportionally fair redundancy — critical gates get the most
/// failure tolerance). Pairs per op are bounded only by the free
/// communication qubits.
std::unique_ptr<CommAllocator> make_cloudqc_allocator();

/// Greedy: the highest-priority request takes as much as it can, then the
/// next, and so on.
std::unique_ptr<CommAllocator> make_greedy_allocator();

/// Average: repeated round-robin, one pair at a time, until nothing fits.
std::unique_ptr<CommAllocator> make_average_allocator();

/// Random: requests receive single pairs in a uniformly random order.
std::unique_ptr<CommAllocator> make_random_allocator();

}  // namespace cloudqc
